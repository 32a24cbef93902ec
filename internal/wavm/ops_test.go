package wavm

import (
	"math"
	"strings"
	"testing"
)

// opCase runs one instruction on its arguments: params are pushed with
// local.get in order, then op runs, then its result is returned.
type opCase struct {
	op     string
	params string // space-separated param types
	result string
	args   []uint64
	want   uint64
	trap   TrapKind // checked when trapping is set
	traps  bool
}

func i32(v int32) uint64   { return EncodeI32(v) }
func u32(v uint32) uint64  { return uint64(v) }
func i64(v int64) uint64   { return uint64(v) }
func f64(v float64) uint64 { return EncodeF64(v) }
func f32(v float32) uint64 { return EncodeF32(v) }

var opCases = []opCase{
	// i32 comparisons and bit counts.
	{op: "i32.eqz", params: "i32", result: "i32", args: []uint64{0}, want: 1},
	{op: "i32.eq", params: "i32 i32", result: "i32", args: []uint64{i32(-1), u32(0xffffffff)}, want: 1},
	{op: "i32.ne", params: "i32 i32", result: "i32", args: []uint64{1, 2}, want: 1},
	{op: "i32.lt_s", params: "i32 i32", result: "i32", args: []uint64{i32(-1), 1}, want: 1},
	{op: "i32.lt_u", params: "i32 i32", result: "i32", args: []uint64{i32(-1), 1}, want: 0},
	{op: "i32.gt_s", params: "i32 i32", result: "i32", args: []uint64{1, i32(-1)}, want: 1},
	{op: "i32.gt_u", params: "i32 i32", result: "i32", args: []uint64{1, i32(-1)}, want: 0},
	{op: "i32.le_s", params: "i32 i32", result: "i32", args: []uint64{i32(-5), i32(-5)}, want: 1},
	{op: "i32.le_u", params: "i32 i32", result: "i32", args: []uint64{i32(-5), 3}, want: 0},
	{op: "i32.ge_s", params: "i32 i32", result: "i32", args: []uint64{i32(-5), 3}, want: 0},
	{op: "i32.ge_u", params: "i32 i32", result: "i32", args: []uint64{i32(-5), 3}, want: 1},
	{op: "i32.clz", params: "i32", result: "i32", args: []uint64{1}, want: 31},
	{op: "i32.ctz", params: "i32", result: "i32", args: []uint64{8}, want: 3},
	{op: "i32.popcnt", params: "i32", result: "i32", args: []uint64{u32(0xf0f0)}, want: 8},
	// i32 arithmetic not covered by the property tests.
	{op: "i32.div_u", params: "i32 i32", result: "i32", args: []uint64{i32(-2), 2}, want: u32(0x7fffffff)},
	{op: "i32.rem_s", params: "i32 i32", result: "i32", args: []uint64{i32(-7), 2}, want: i32(-1)},
	{op: "i32.rem_s", params: "i32 i32", result: "i32", args: []uint64{i32(math.MinInt32), i32(-1)}, want: 0},
	{op: "i32.rem_s", params: "i32 i32", result: "i32", args: []uint64{1, 0}, traps: true, trap: TrapDivByZero},
	{op: "i32.rem_u", params: "i32 i32", result: "i32", args: []uint64{i32(-1), 10}, want: 5},
	{op: "i32.rem_u", params: "i32 i32", result: "i32", args: []uint64{1, 0}, traps: true, trap: TrapDivByZero},
	{op: "i32.div_s", params: "i32 i32", result: "i32", args: []uint64{1, 0}, traps: true, trap: TrapDivByZero},
	{op: "i32.shr_u", params: "i32 i32", result: "i32", args: []uint64{i32(-1), 36}, want: u32(0x0fffffff)},
	{op: "i32.rotr", params: "i32 i32", result: "i32", args: []uint64{1, 1}, want: u32(0x80000000)},
	// i64.
	{op: "i64.eqz", params: "i64", result: "i32", args: []uint64{1 << 40}, want: 0},
	{op: "i64.eq", params: "i64 i64", result: "i32", args: []uint64{1 << 40, 1 << 40}, want: 1},
	{op: "i64.ne", params: "i64 i64", result: "i32", args: []uint64{1 << 40, 1}, want: 1},
	{op: "i64.lt_s", params: "i64 i64", result: "i32", args: []uint64{i64(-1), 0}, want: 1},
	{op: "i64.lt_u", params: "i64 i64", result: "i32", args: []uint64{i64(-1), 0}, want: 0},
	{op: "i64.gt_s", params: "i64 i64", result: "i32", args: []uint64{0, i64(-1)}, want: 1},
	{op: "i64.gt_u", params: "i64 i64", result: "i32", args: []uint64{0, i64(-1)}, want: 0},
	{op: "i64.le_s", params: "i64 i64", result: "i32", args: []uint64{i64(-1), i64(-1)}, want: 1},
	{op: "i64.le_u", params: "i64 i64", result: "i32", args: []uint64{i64(-1), 0}, want: 0},
	{op: "i64.ge_s", params: "i64 i64", result: "i32", args: []uint64{i64(-1), 0}, want: 0},
	{op: "i64.ge_u", params: "i64 i64", result: "i32", args: []uint64{i64(-1), 0}, want: 1},
	{op: "i64.clz", params: "i64", result: "i64", args: []uint64{1}, want: 63},
	{op: "i64.ctz", params: "i64", result: "i64", args: []uint64{1 << 40}, want: 40},
	{op: "i64.popcnt", params: "i64", result: "i64", args: []uint64{i64(-1)}, want: 64},
	{op: "i64.add", params: "i64 i64", result: "i64", args: []uint64{1 << 40, 1 << 40}, want: 1 << 41},
	{op: "i64.sub", params: "i64 i64", result: "i64", args: []uint64{0, 1}, want: i64(-1)},
	{op: "i64.mul", params: "i64 i64", result: "i64", args: []uint64{1 << 33, 3}, want: 3 << 33},
	{op: "i64.div_u", params: "i64 i64", result: "i64", args: []uint64{i64(-2), 2}, want: math.MaxInt64},
	{op: "i64.div_u", params: "i64 i64", result: "i64", args: []uint64{1, 0}, traps: true, trap: TrapDivByZero},
	{op: "i64.rem_s", params: "i64 i64", result: "i64", args: []uint64{i64(-7), 2}, want: i64(-1)},
	{op: "i64.rem_s", params: "i64 i64", result: "i64", args: []uint64{i64(math.MinInt64), i64(-1)}, want: 0},
	{op: "i64.rem_s", params: "i64 i64", result: "i64", args: []uint64{1, 0}, traps: true, trap: TrapDivByZero},
	{op: "i64.rem_u", params: "i64 i64", result: "i64", args: []uint64{i64(-1), 10}, want: 5},
	{op: "i64.rem_u", params: "i64 i64", result: "i64", args: []uint64{1, 0}, traps: true, trap: TrapDivByZero},
	{op: "i64.and", params: "i64 i64", result: "i64", args: []uint64{0xff00, 0x0ff0}, want: 0x0f00},
	{op: "i64.or", params: "i64 i64", result: "i64", args: []uint64{0xff00, 0x0ff0}, want: 0xfff0},
	{op: "i64.xor", params: "i64 i64", result: "i64", args: []uint64{0xff00, 0x0ff0}, want: 0xf0f0},
	{op: "i64.shl", params: "i64 i64", result: "i64", args: []uint64{1, 65}, want: 2},
	{op: "i64.shr_s", params: "i64 i64", result: "i64", args: []uint64{i64(-8), 1}, want: i64(-4)},
	{op: "i64.shr_u", params: "i64 i64", result: "i64", args: []uint64{i64(-8), 60}, want: 15},
	{op: "i64.rotl", params: "i64 i64", result: "i64", args: []uint64{1 << 63, 1}, want: 1},
	{op: "i64.rotr", params: "i64 i64", result: "i64", args: []uint64{1, 1}, want: 1 << 63},
	// f64.
	{op: "f64.eq", params: "f64 f64", result: "i32", args: []uint64{f64(1.5), f64(1.5)}, want: 1},
	{op: "f64.ne", params: "f64 f64", result: "i32", args: []uint64{f64(math.NaN()), f64(math.NaN())}, want: 1},
	{op: "f64.lt", params: "f64 f64", result: "i32", args: []uint64{f64(-1), f64(1)}, want: 1},
	{op: "f64.gt", params: "f64 f64", result: "i32", args: []uint64{f64(-1), f64(1)}, want: 0},
	{op: "f64.le", params: "f64 f64", result: "i32", args: []uint64{f64(1), f64(1)}, want: 1},
	{op: "f64.ge", params: "f64 f64", result: "i32", args: []uint64{f64(math.NaN()), f64(1)}, want: 0},
	{op: "f64.abs", params: "f64", result: "f64", args: []uint64{f64(-2.5)}, want: f64(2.5)},
	{op: "f64.neg", params: "f64", result: "f64", args: []uint64{f64(2.5)}, want: f64(-2.5)},
	{op: "f64.ceil", params: "f64", result: "f64", args: []uint64{f64(1.2)}, want: f64(2)},
	{op: "f64.floor", params: "f64", result: "f64", args: []uint64{f64(-1.2)}, want: f64(-2)},
	{op: "f64.trunc", params: "f64", result: "f64", args: []uint64{f64(-1.7)}, want: f64(-1)},
	{op: "f64.nearest", params: "f64", result: "f64", args: []uint64{f64(2.5)}, want: f64(2)},
	{op: "f64.min", params: "f64 f64", result: "f64", args: []uint64{f64(3), f64(-3)}, want: f64(-3)},
	{op: "f64.max", params: "f64 f64", result: "f64", args: []uint64{f64(3), f64(-3)}, want: f64(3)},
	{op: "f64.copysign", params: "f64 f64", result: "f64", args: []uint64{f64(-3), f64(0.5)}, want: f64(3)},
	{op: "f64.copysign", params: "f64 f64", result: "f64", args: []uint64{f64(3), f64(-1)}, want: f64(-3)},
	// f32.
	{op: "f32.eq", params: "f32 f32", result: "i32", args: []uint64{f32(1.5), f32(1.5)}, want: 1},
	{op: "f32.ne", params: "f32 f32", result: "i32", args: []uint64{f32(1.5), f32(2)}, want: 1},
	{op: "f32.lt", params: "f32 f32", result: "i32", args: []uint64{f32(1), f32(2)}, want: 1},
	{op: "f32.gt", params: "f32 f32", result: "i32", args: []uint64{f32(1), f32(2)}, want: 0},
	{op: "f32.le", params: "f32 f32", result: "i32", args: []uint64{f32(2), f32(2)}, want: 1},
	{op: "f32.ge", params: "f32 f32", result: "i32", args: []uint64{f32(1), f32(2)}, want: 0},
	{op: "f32.abs", params: "f32", result: "f32", args: []uint64{f32(-4)}, want: f32(4)},
	{op: "f32.neg", params: "f32", result: "f32", args: []uint64{f32(4)}, want: f32(-4)},
	{op: "f32.sqrt", params: "f32", result: "f32", args: []uint64{f32(16)}, want: f32(4)},
	{op: "f32.add", params: "f32 f32", result: "f32", args: []uint64{f32(1.5), f32(2)}, want: f32(3.5)},
	{op: "f32.sub", params: "f32 f32", result: "f32", args: []uint64{f32(1.5), f32(2)}, want: f32(-0.5)},
	{op: "f32.mul", params: "f32 f32", result: "f32", args: []uint64{f32(1.5), f32(2)}, want: f32(3)},
	{op: "f32.div", params: "f32 f32", result: "f32", args: []uint64{f32(3), f32(2)}, want: f32(1.5)},
	{op: "f32.min", params: "f32 f32", result: "f32", args: []uint64{f32(3), f32(2)}, want: f32(2)},
	{op: "f32.max", params: "f32 f32", result: "f32", args: []uint64{f32(3), f32(2)}, want: f32(3)},
	// Conversions.
	{op: "i64.extend_i32_s", params: "i32", result: "i64", args: []uint64{i32(-2)}, want: i64(-2)},
	{op: "i64.extend_i32_u", params: "i32", result: "i64", args: []uint64{i32(-2)}, want: 0xfffffffe},
	{op: "i32.trunc_f64_u", params: "f64", result: "i32", args: []uint64{f64(4e9)}, want: 4000000000},
	{op: "i32.trunc_f64_u", params: "f64", result: "i32", args: []uint64{f64(-1)}, traps: true, trap: TrapInvalidConversion},
	{op: "i64.trunc_f64_s", params: "f64", result: "i64", args: []uint64{f64(-1e15)}, want: i64(-1e15)},
	{op: "i64.trunc_f64_s", params: "f64", result: "i64", args: []uint64{f64(1e19)}, traps: true, trap: TrapInvalidConversion},
	{op: "i64.trunc_f64_u", params: "f64", result: "i64", args: []uint64{f64(1e19)}, want: 1e19},
	{op: "i64.trunc_f64_u", params: "f64", result: "i64", args: []uint64{f64(math.NaN())}, traps: true, trap: TrapInvalidConversion},
	{op: "i32.trunc_f32_s", params: "f32", result: "i32", args: []uint64{f32(-3.5)}, want: i32(-3)},
	{op: "i32.trunc_f32_s", params: "f32", result: "i32", args: []uint64{f32(3e9)}, traps: true, trap: TrapInvalidConversion},
	{op: "i32.trunc_f32_u", params: "f32", result: "i32", args: []uint64{f32(3e9)}, want: 3000000000},
	{op: "i32.trunc_f32_u", params: "f32", result: "i32", args: []uint64{f32(-2)}, traps: true, trap: TrapInvalidConversion},
	{op: "f64.convert_i32_u", params: "i32", result: "f64", args: []uint64{i32(-1)}, want: f64(4294967295)},
	{op: "f64.convert_i64_s", params: "i64", result: "f64", args: []uint64{i64(-3)}, want: f64(-3)},
	{op: "f64.convert_i64_u", params: "i64", result: "f64", args: []uint64{1 << 63}, want: f64(1 << 63)},
	{op: "f32.convert_i32_s", params: "i32", result: "f32", args: []uint64{i32(-3)}, want: f32(-3)},
	{op: "f32.convert_i64_s", params: "i64", result: "f32", args: []uint64{i64(-3)}, want: f32(-3)},
	{op: "f64.promote_f32", params: "f32", result: "f64", args: []uint64{f32(1.5)}, want: f64(1.5)},
	{op: "f32.demote_f64", params: "f64", result: "f32", args: []uint64{f64(1.5)}, want: f32(1.5)},
	{op: "i32.reinterpret_f32", params: "f32", result: "i32", args: []uint64{f32(1)}, want: 0x3f800000},
	{op: "f32.reinterpret_i32", params: "i32", result: "f32", args: []uint64{0x3f800000}, want: f32(1)},
	{op: "i64.reinterpret_f64", params: "f64", result: "i64", args: []uint64{f64(1)}, want: 0x3ff0000000000000},
	{op: "f64.reinterpret_i64", params: "i64", result: "f64", args: []uint64{0x3ff0000000000000}, want: f64(1)},
}

// TestEveryOpcode checks each numeric instruction of the interpreter's one
// switch against a hand-computed result, including its trapping edges.
func TestEveryOpcode(t *testing.T) {
	for _, c := range opCases {
		var body strings.Builder
		for i := range strings.Fields(c.params) {
			body.WriteString("local.get " + string(rune('0'+i)) + " ")
		}
		src := `(module (func $f (export "f") (param ` + c.params + `) (result ` + c.result + `) ` + body.String() + c.op + `))`
		res, err := instance(t, src).Call("f", c.args...)
		if c.traps {
			assertTrap(t, err, c.trap)
			continue
		}
		if err != nil {
			t.Errorf("%s%v: %v", c.op, c.args, err)
			continue
		}
		got := res[0]
		if c.result == "i32" || c.result == "f32" {
			got = uint64(uint32(got))
		}
		if got != c.want {
			t.Errorf("%s%v = %#x, want %#x", c.op, c.args, got, c.want)
		}
	}
}

// TestMemoryWidths stores and loads every width and sign at an offset,
// plus a store whose offset pushes it out of bounds.
func TestMemoryWidths(t *testing.T) {
	inst := instance(t, `(module
	  (memory 1 1)
	  (func $w (export "w") (param $a i32) (param $v i64)
	    local.get $a local.get $v i64.store offset=8)
	  (func $st32 (export "st32") (param $a i32) (param $v i32)
	    local.get $a local.get $v i32.store offset=4)
	  (func $st8 (export "st8") (param $a i32) (param $v i32)
	    local.get $a local.get $v i32.store8)
	  (func $st16 (export "st16") (param $a i32) (param $v i32)
	    local.get $a local.get $v i32.store16)
	  (func $st64_32 (export "st64_32") (param $a i32) (param $v i64)
	    local.get $a local.get $v i64.store32)
	  (func $stf32 (export "stf32") (param $a i32) (param $v f32)
	    local.get $a local.get $v f32.store)
	  (func $ldf32 (export "ldf32") (param $a i32) (result f32)
	    local.get $a f32.load)
	  (func $ld32 (export "ld32") (param $a i32) (result i32)
	    local.get $a i32.load offset=4)
	  (func $ld64 (export "ld64") (param $a i32) (result i64)
	    local.get $a i64.load offset=8)
	  (func $l32s (export "l32s") (param $a i32) (result i64)
	    local.get $a i64.load32_s)
	  (func $l32u (export "l32u") (param $a i32) (result i64)
	    local.get $a i64.load32_u))`)
	call := func(fn string, args ...uint64) uint64 {
		t.Helper()
		res, err := inst.Call(fn, args...)
		if err != nil {
			t.Fatalf("%s%v: %v", fn, args, err)
		}
		if len(res) == 0 {
			return 0
		}
		return res[0]
	}
	call("w", 100, 0x1122334455667788)
	if got := call("ld64", 100); got != 0x1122334455667788 {
		t.Fatalf("i64 round trip = %#x", got)
	}
	call("st32", 200, u32(0xfffffffe))
	if got := call("ld32", 200); got != 0xfffffffe {
		t.Fatalf("i32 round trip = %#x", got)
	}
	call("st8", 300, 0x1ff)
	call("st16", 301, 0xfffff)
	if got := call("ld32", 296); got != 0xffffff {
		t.Fatalf("store8+store16 = %#x", got)
	}
	call("st64_32", 400, i64(-2))
	if got := call("l32s", 400); got != i64(-2) {
		t.Fatalf("load32_s = %#x", got)
	}
	if got := call("l32u", 400); got != 0xfffffffe {
		t.Fatalf("load32_u = %#x", got)
	}
	call("stf32", 500, f32(2.5))
	if got := DecodeF32(call("ldf32", 500)); got != 2.5 {
		t.Fatalf("f32 round trip = %v", got)
	}
	for _, c := range []struct {
		fn   string
		args []uint64
	}{
		{"w", []uint64{65536 - 15, 0}}, {"st32", []uint64{65536 - 7, 0}},
		{"st8", []uint64{65536, 0}}, {"st16", []uint64{65535, 0}},
		{"st64_32", []uint64{65533, 0}}, {"ld64", []uint64{65536 - 15}},
		{"l32s", []uint64{65533}}, {"ldf32", []uint64{65533}},
	} {
		_, err := inst.Call(c.fn, c.args...)
		assertTrap(t, err, TrapOutOfBounds)
	}
}

func TestMemoryGrowNegativeAndGlobalsAccessors(t *testing.T) {
	inst := instance(t, `(module
	  (memory 1 4)
	  (global $g (mut i64) (i64.const 5))
	  (func $grow (export "grow") (param i32) (result i32) local.get 0 memory.grow)
	  (func $g (export "g") (result i64) global.get $g))`)
	if res, _ := inst.Call("grow", i32(-1)); DecodeI32(res[0]) != -1 {
		t.Fatalf("grow(-1) = %d, want -1", DecodeI32(res[0]))
	}
	if err := inst.SetGlobalValue(0, 9); err != nil {
		t.Fatal(err)
	}
	if v, err := inst.GlobalValue(0); err != nil || v != 9 {
		t.Fatalf("global = %d, %v", v, err)
	}
	if res, _ := inst.Call("g"); res[0] != 9 || inst.Globals()[0] != 9 {
		t.Fatal("guest did not see the restored global")
	}
	if _, err := inst.GlobalValue(3); err == nil {
		t.Fatal("out-of-range global read accepted")
	}
	if err := inst.SetGlobalValue(-1, 0); err == nil {
		t.Fatal("out-of-range global write accepted")
	}
}
