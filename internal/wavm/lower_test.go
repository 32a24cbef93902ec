package wavm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// fuseSplit describes a program fragment around one fusible sequence, split
// at one of its internal boundaries into x (the instructions before it) and
// y (the instructions after). pre pushes what y consumes below the joined
// value, alt pushes the joined value on the branch path, xin pushes what x
// consumes, and post finishes the result. taken and fall are the
// hand-computed results when the branch to y is taken and when control
// falls through x into y.
type fuseSplit struct {
	name                      string
	t, result                 string // joined value type, function result type
	pre, alt, xin, x, y, post string
	taken, fall               string
}

// fuseSplits covers every boundary inside every sequence in fusions, with
// $a = 10 and, at addresses 16 and 24, the f64 values 1.5 and 2.5. Results
// are rendered with %v of the decoded value.
var fuseSplits = []fuseSplit{
	{name: "local.get | local.get", t: "i32", result: "i32", alt: "i32.const 7",
		x: "local.get $a", y: "local.get $a", post: "i32.sub", taken: "-3", fall: "0"},
	{name: "i32.const | i32.mul", t: "i32", result: "i32", pre: "i32.const 5", alt: "i32.const 7",
		x: "i32.const 3", y: "i32.mul", taken: "35", fall: "15"},
	{name: "i32.mul | i32.add", t: "i32", result: "i32", pre: "i32.const 100", alt: "i32.const 7",
		xin: "i32.const 2 i32.const 3", x: "i32.mul", y: "i32.add", taken: "107", fall: "106"},
	{name: "i32.add | f64.load", t: "i32", result: "f64", alt: "i32.const 24",
		xin: "i32.const 8 i32.const 8", x: "i32.add", y: "f64.load", taken: "2.5", fall: "1.5"},
	{name: "local.get | i32.add", t: "i32", result: "i32", pre: "i32.const 100", alt: "i32.const 7",
		x: "local.get $a", y: "i32.add", taken: "107", fall: "110"},
	{name: "local.get | i32.mul", t: "i32", result: "i32", pre: "i32.const 3", alt: "i32.const 7",
		x: "local.get $a", y: "i32.mul", taken: "21", fall: "30"},
	// A sequence ending in br_if yields 2 when it branches out, else 1.
	{name: "i32.eqz | br_if", t: "i32", result: "i32", alt: "i32.const 1",
		xin: "local.get $a", x: "i32.eqz", y: "br_if $out", post: "i32.const 1", taken: "2", fall: "1"},
	{name: "i32.const | i32.add", t: "i32", result: "i32", pre: "i32.const 100", alt: "i32.const 7",
		x: "i32.const 3", y: "i32.add", taken: "107", fall: "103"},
	{name: "f64.mul | f64.add", t: "f64", result: "f64", pre: "f64.const 0.5", alt: "f64.const 7",
		xin: "f64.const 2 f64.const 3", x: "f64.mul", y: "f64.add", taken: "7.5", fall: "6.5"},
	{name: "i32.lt_s | i32.eqz br_if", t: "i32", result: "i32", alt: "i32.const 0",
		xin: "local.get $a i32.const 20", x: "i32.lt_s", y: "i32.eqz br_if $out", post: "i32.const 1", taken: "2", fall: "1"},
	{name: "i32.lt_s i32.eqz | br_if", t: "i32", result: "i32", alt: "i32.const 1",
		xin: "local.get $a i32.const 20 i32.lt_s", x: "i32.eqz", y: "br_if $out", post: "i32.const 1", taken: "2", fall: "1"},
	{name: "local.get | i32.const i32.add local.set", t: "i32", result: "i32", alt: "i32.const 7",
		x: "local.get $a", y: "i32.const 1 i32.add local.set $r", post: "local.get $r", taken: "8", fall: "11"},
	{name: "local.get i32.const | i32.add local.set", t: "i32", result: "i32", pre: "local.get $a", alt: "i32.const 7",
		x: "i32.const 1", y: "i32.add local.set $r", post: "local.get $r", taken: "17", fall: "11"},
	{name: "local.get i32.const i32.add | local.set", t: "i32", result: "i32", alt: "i32.const 7",
		xin: "local.get $a i32.const 1", x: "i32.add", y: "local.set $r", post: "local.get $r", taken: "7", fall: "11"},
	{name: "i32.const | i32.mul i32.add f64.load", t: "i32", result: "f64", pre: "i32.const 16 i32.const 1", alt: "i32.const 0",
		x: "i32.const 8", y: "i32.mul i32.add f64.load", taken: "1.5", fall: "2.5"},
	{name: "i32.const i32.mul | i32.add f64.load", t: "i32", result: "f64", pre: "i32.const 16", alt: "i32.const 0",
		xin: "i32.const 1 i32.const 8", x: "i32.mul", y: "i32.add f64.load", taken: "1.5", fall: "2.5"},
	{name: "i32.const i32.mul i32.add | f64.load", t: "i32", result: "f64", alt: "i32.const 16",
		xin: "i32.const 16 i32.const 1 i32.const 8 i32.mul", x: "i32.add", y: "f64.load", taken: "1.5", fall: "2.5"},
}

// joinKinds place x just before a structure instruction whose branch
// target is y: after lowering drops the structure instruction, x and y sit
// side by side, and fusing across them would run x on the branch path. $p selects
// the branch (non-zero) or the fall-through (zero).
var joinKinds = []struct {
	name string
	body func(f fuseSplit) string
}{
	{"br_if block end", func(f fuseSplit) string {
		return fmt.Sprintf(`%s
		block (result %s)
		  %s
		  local.get $p
		  br_if 0
		  drop
		  %s
		  %s
		end
		%s`, f.pre, f.t, f.alt, f.xin, f.x, f.y)
	}},
	{"br block end", func(f fuseSplit) string {
		return fmt.Sprintf(`%s
		block (result %s)
		  local.get $p
		  if
		    %s
		    br 1
		  end
		  %s
		  %s
		end
		%s`, f.pre, f.t, f.alt, f.xin, f.x, f.y)
	}},
	{"br_table entry", func(f fuseSplit) string {
		return fmt.Sprintf(`%s
		block $j (result %s)
		  block $x (result %s)
		    %s
		    local.get $p
		    br_table $x $j
		  end
		  drop
		  %s
		  %s
		end
		%s`, f.pre, f.t, f.t, f.alt, f.xin, f.x, f.y)
	}},
	{"if/else join", func(f fuseSplit) string {
		return fmt.Sprintf(`%s
		local.get $p
		if (result %s)
		  %s
		else
		  %s
		  %s
		end
		%s`, f.pre, f.t, f.alt, f.xin, f.x, f.y)
	}},
}

// fuseModule wraps a body in a function f(p, a) with memory holding 1.5 at
// address 16 and 2.5 at 24, and an outer block $out for branching pairs.
func fuseModule(f fuseSplit, body string) string {
	ret := "i32.const 2"
	if f.result == "f64" {
		ret = "f64.const -1"
	}
	return fmt.Sprintf(`(module
	  (memory 1)
	  (func $f (export "f") (param $p i32) (param $a i32) (result %s) (local $n i32) (local $r i32)
	    i32.const 16 f64.const 1.5 f64.store
	    i32.const 24 f64.const 2.5 f64.store
	    block $out
	      %s
	      %s
	      return
	    end
	    %s))`, f.result, body, f.post, ret)
}

func decodeResult(typ string, v uint64) string {
	if typ == "f64" {
		return fmt.Sprint(DecodeF64(v))
	}
	return fmt.Sprint(DecodeI32(v))
}

// TestFusionNeverCrossesBranchTarget lands a br/br_if block end, a
// br_table entry and an if/else join inside every fusible sequence, at each
// of its internal boundaries, and checks both paths against hand-computed
// results.
func TestFusionNeverCrossesBranchTarget(t *testing.T) {
	for _, f := range fuseSplits {
		for _, k := range joinKinds {
			src := fuseModule(f, k.body(f))
			inst := instance(t, src)
			for _, p := range []struct {
				sel  int32
				want string
			}{{1, f.taken}, {0, f.fall}} {
				res, err := inst.Call("f", EncodeI32(p.sel), EncodeI32(10))
				if err != nil {
					t.Fatalf("%s / %s (p=%d): %v", f.name, k.name, p.sel, err)
				}
				if got := decodeResult(f.result, res[0]); got != p.want {
					t.Errorf("%s / %s (p=%d): got %s, want %s", f.name, k.name, p.sel, got, p.want)
				}
			}
		}
	}
}

// TestEveryFusionBoundaryCovered keeps fuseSplits in step with fusions:
// each internal boundary of each fused sequence has a split above.
func TestEveryFusionBoundaryCovered(t *testing.T) {
	have := map[string]bool{}
	for _, f := range fuseSplits {
		have[f.name] = true
	}
	for _, f := range fusions {
		names := make([]string, len(f.seq))
		for i, op := range f.seq {
			names[i] = op.String()
		}
		for j := 1; j < len(names); j++ {
			split := strings.Join(names[:j], " ") + " | " + strings.Join(names[j:], " ")
			if !have[split] {
				t.Errorf("no branch-target test for %q", split)
			}
		}
	}
}

// TestFusionAtLoopLabel covers loop labels. A loop label lands on the
// first instruction of the loop body, which cannot pop values from outside
// the loop, so the label can land on y only where y pops nothing, as for
// local.get*2. For every split the label also lands on the start of the
// fragment, re-entering the fused sequence from the back edge on each of
// three iterations.
func TestFusionAtLoopLabel(t *testing.T) {
	// x = local.get $a before the loop, y = local.get $a at the label.
	src := `(module
	  (func $f (export "f") (param $a i32) (result i32) (local $n i32) (local $acc i32)
	    i32.const 3
	    local.set $n
	    local.get $a
	    loop $l
	      local.get $a
	      local.get $acc
	      i32.add
	      local.set $acc
	      local.get $n
	      i32.const 1
	      i32.sub
	      local.tee $n
	      br_if $l
	    end
	    local.get $acc
	    i32.add))`
	if got := DecodeI32(run(t, src, "f", EncodeI32(10))[0]); got != 40 {
		t.Fatalf("loop label on local.get*2: got %d, want 40", got)
	}
	for _, f := range fuseSplits {
		body := fmt.Sprintf(`i32.const 3
		local.set $n
		loop $l (result %s)
		  %s %s %s %s %s
		  local.get $n
		  i32.const 1
		  i32.sub
		  local.tee $n
		  br_if $l
		end`, f.result, f.pre, f.xin, f.x, f.y, f.post)
		inLoop := f
		inLoop.post = ""
		res := run(t, fuseModule(inLoop, body), "f", 0, EncodeI32(10))
		if got := decodeResult(f.result, res[0]); got != f.fall {
			t.Errorf("%s at a loop label: got %s, want %s", f.name, got, f.fall)
		}
	}
}

func TestLoweringElidesStructureAndFuses(t *testing.T) {
	mod, err := AssembleAndValidate(loopSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	lf := mod.Funcs[0].lowered
	seen := map[Op]bool{}
	for _, in := range lf.code {
		seen[in.op] = true
	}
	for _, op := range []Op{OpNop, OpBlock, OpLoop, OpEnd} {
		if seen[op] {
			t.Errorf("lowered code still holds %s", op)
		}
	}
	for _, op := range []Op{opLocalGet2, opI32AddConst} {
		if !seen[op] {
			t.Errorf("lowered code lacks fused %s", op)
		}
	}
	if len(lf.code) >= len(mod.Funcs[0].Code) {
		t.Errorf("lowered %d instructions from %d", len(lf.code), len(mod.Funcs[0].Code))
	}
	// Lowered code lives as long as its Module: keep an instruction small.
	if size := unsafe.Sizeof(linstr{}); size != 16 {
		t.Errorf("linstr is %d bytes, want 16", size)
	}
}

func TestLoweredOpcodesRejected(t *testing.T) {
	for op := range loweredNames {
		if _, ok := opByName[op.String()]; ok {
			t.Errorf("the text format can name lowered-only %s", op)
		}
		mod, err := Assemble(`(module (func $f (export "f") (param i32) (result i32) local.get 0 local.get 0 i32.add))`)
		if err != nil {
			t.Fatal(err)
		}
		mod.Funcs[0].Code[0].Op = op
		if err := Validate(mod); err == nil || !strings.Contains(err.Error(), "lowered") {
			t.Errorf("Validate accepted %s in Code: %v", op, err)
		}
	}
	// An object whose Code names one is refused on decode as well.
	mod, err := AssembleAndValidate(`(module (func $f (export "f") (param i32) (result i32) local.get 0))`)
	if err != nil {
		t.Fatal(err)
	}
	mod.Funcs[0].Code[0].Op = opLocalGet2
	blob, err := EncodeObject(mod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeObject(blob); err == nil {
		t.Fatal("DecodeObject accepted a lowered-only opcode")
	}
}

func TestUnloweredModuleRefused(t *testing.T) {
	mod, err := Assemble(`(module (func $f (export "f")))`)
	if err != nil {
		t.Fatal(err)
	}
	mod.Validated = true // skipped Validate, so nothing was lowered
	if _, err := Instantiate(mod, nil); err == nil {
		t.Fatal("instantiated a module that was never lowered")
	}
}

const loopSumSrc = `(module
  (func $sum (export "sum") (param $n i32) (result i32) (local $i i32) (local $acc i32)
    block $exit
      loop $top
        local.get $i
        local.get $n
        i32.ge_s
        br_if $exit
        local.get $i
        i32.const 1
        i32.add
        local.tee $i
        local.get $acc
        i32.add
        local.set $acc
        br $top
      end
    end
    local.get $acc))`

const brTableSrc = `(module
  (func $classify (export "classify") (param $x i32) (result i32)
    block $c
      block $b
        block $a
          local.get $x
          br_table $a $b $c
        end
        i32.const 10
        return
      end
      i32.const 20
      return
    end
    i32.const 30))`

const absSrc = `(module
  (func $abs (export "abs") (param $x i32) (result i32)
    local.get $x
    i32.const 0
    i32.lt_s
    if (result i32)
      i32.const 0
      local.get $x
      i32.sub
    else
      local.get $x
    end))`

const fibSrc = `(module
  (func $fib (export "fib") (param $n i32) (result i32)
    local.get $n
    i32.const 2
    i32.lt_s
    if (result i32)
      local.get $n
    else
      local.get $n
      i32.const 1
      i32.sub
      call $fib
      local.get $n
      i32.const 2
      i32.sub
      call $fib
      i32.add
    end))`

const applySrc = `(module
  (table (elem $double $square))
  (func $double (param $x i32) (result i32)
    local.get $x i32.const 2 i32.mul)
  (func $square (param $x i32) (result i32)
    local.get $x local.get $x i32.mul)
  (func $apply (export "apply") (param $f i32) (param $x i32) (result i32)
    local.get $x
    local.get $f
    call_indirect (param i32) (result i32)))`

// stepCases pins Instance.Steps for the wavm_test programs. The values
// were recorded with the per-instruction interpreter that preceded
// lowering; a call that completes must still count exactly these.
var stepCases = []struct {
	name, src, fn string
	args          []uint64
	result        int32
	steps         uint64
}{
	{"loop sum 10", loopSumSrc, "sum", []uint64{10}, 55, 128},
	{"loop sum 0", loopSumSrc, "sum", []uint64{0}, 0, 8},
	{"br_table 0", brTableSrc, "classify", []uint64{0}, 10, 8},
	{"br_table 1", brTableSrc, "classify", []uint64{1}, 20, 8},
	{"br_table 2", brTableSrc, "classify", []uint64{2}, 30, 7},
	{"br_table default", brTableSrc, "classify", []uint64{99}, 30, 7},
	{"if/else then", absSrc, "abs", []uint64{EncodeI32(-9)}, 9, 9},
	{"if/else else", absSrc, "abs", []uint64{7}, 7, 6},
	{"call/recursion", fibSrc, "fib", []uint64{15}, 610, 20713},
	{"call_indirect double", applySrc, "apply", []uint64{0, 21}, 42, 6},
	{"call_indirect square", applySrc, "apply", []uint64{1, 6}, 36, 6},
}

func TestStepCountsPinned(t *testing.T) {
	for _, tc := range stepCases {
		inst := instance(t, tc.src)
		res, err := inst.Call(tc.fn, tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := DecodeI32(res[0]); got != tc.result {
			t.Errorf("%s: result %d, want %d", tc.name, got, tc.result)
		}
		if inst.Steps != tc.steps {
			t.Errorf("%s: steps %d, want %d", tc.name, inst.Steps, tc.steps)
		}
	}
}

// TestFuelNeverExceedsBudget sweeps budgets around each program's cost:
// the call completes with identical steps once the budget covers it, and
// otherwise traps TrapFuelExhausted without ever exceeding the budget.
func TestFuelNeverExceedsBudget(t *testing.T) {
	for _, tc := range stepCases {
		mod, err := AssembleAndValidate(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		budgets := []int64{0, 1, 2, 3, 5, int64(tc.steps) / 2, int64(tc.steps) - 1, int64(tc.steps), int64(tc.steps) + 1}
		for _, n := range budgets {
			if n < 0 {
				continue
			}
			inst, err := Instantiate(mod, nil, WithFuel(n))
			if err != nil {
				t.Fatal(err)
			}
			res, err := inst.Call(tc.fn, tc.args...)
			if inst.Steps > uint64(n) {
				t.Fatalf("%s: fuel %d: executed %d steps", tc.name, n, inst.Steps)
			}
			if inst.Fuel != n-int64(inst.Steps) {
				t.Fatalf("%s: fuel %d: %d left after %d steps", tc.name, n, inst.Fuel, inst.Steps)
			}
			if n >= int64(tc.steps) {
				if err != nil || DecodeI32(res[0]) != tc.result || inst.Steps != tc.steps {
					t.Fatalf("%s: fuel %d: err=%v steps=%d", tc.name, n, err, inst.Steps)
				}
				continue
			}
			assertTrap(t, err, TrapFuelExhausted)
		}
	}
}

func TestObjectRoundTripKeepsStepsAndResults(t *testing.T) {
	for _, tc := range stepCases {
		mod, err := AssembleAndValidate(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeObject(mod)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeObject(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Module{mod, back} {
			inst, err := Instantiate(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := inst.Call(tc.fn, tc.args...)
			if err != nil || DecodeI32(res[0]) != tc.result || inst.Steps != tc.steps {
				t.Fatalf("%s: err=%v res=%v steps=%d, want %d in %d steps", tc.name, err, res, inst.Steps, tc.result, tc.steps)
			}
		}
	}
}

// TestCallsDoNotAllocate: guest-to-guest calls and returns reuse the
// instance's value stack, so a warm top-level call allocates only the
// result slice it returns.
func TestCallsDoNotAllocate(t *testing.T) {
	inst := instance(t, fibSrc)
	arg := EncodeI32(12)
	inst.Call("fib", arg) // size the value stack
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := inst.Call("fib", arg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("fib(12) allocated %.0f times per call, want at most 1", allocs)
	}
}

func TestDeepRecursionGrowsValueStack(t *testing.T) {
	src := `(module
	  (func $down (export "down") (param $n i32) (result i32) (local $pad f64)
	    local.get $n
	    i32.eqz
	    if (result i32)
	      i32.const 0
	    else
	      local.get $n
	      i32.const 1
	      i32.sub
	      call $down
	      i32.const 1
	      i32.add
	    end))`
	inst := instance(t, src)
	res, err := inst.Call("down", EncodeI32(DefaultMaxCallDepth))
	if err != nil || DecodeI32(res[0]) != DefaultMaxCallDepth {
		t.Fatalf("down(%d) = %v, %v", DefaultMaxCallDepth, res, err)
	}
	_, err = inst.Call("down", EncodeI32(DefaultMaxCallDepth+1))
	assertTrap(t, err, TrapStackOverflow)
	// The instance is still usable after the trap.
	if res, err := inst.Call("down", EncodeI32(3)); err != nil || DecodeI32(res[0]) != 3 {
		t.Fatalf("after trap: %v, %v", res, err)
	}
}

// TestHostReentersInstance: a host function may call back into its
// instance; the nested call runs above the caller's frames and leaves them
// intact.
func TestHostReentersInstance(t *testing.T) {
	src := `(module
	  (import "env" "twice" (func $twice (param i32) (result i32)))
	  (func $inc (export "inc") (param $x i32) (result i32)
	    local.get $x i32.const 1 i32.add)
	  (func $f (export "f") (param $x i32) (result i32) (local $keep i32)
	    i32.const 1000
	    local.set $keep
	    i32.const 7
	    local.get $x
	    call $twice
	    i32.add
	    local.get $keep
	    i32.add))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(mod, map[string]HostModule{"env": {
		"twice": func(in *Instance, args []uint64) ([]uint64, error) {
			a, err := in.Call("inc", args[0])
			if err != nil {
				return nil, err
			}
			b, err := in.Call("inc", a[0])
			if err != nil {
				return nil, err
			}
			return b, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("f", EncodeI32(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeI32(res[0]); got != 7+7+1000 {
		t.Fatalf("f(5) = %d, want %d", got, 7+7+1000)
	}
}

func TestHostShortResultTraps(t *testing.T) {
	src := `(module
	  (import "env" "none" (func $none (result i32)))
	  (func $f (export "f") (result i32) call $none))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(mod, map[string]HostModule{"env": {
		"none": func(*Instance, []uint64) ([]uint64, error) { return nil, nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Call("f")
	assertTrap(t, err, TrapHostError)
}

func TestMemoryCopyFillTrapsLeaveMemory(t *testing.T) {
	src := `(module
	  (memory 1 1)
	  (data (i32.const 65530) "abcdef")
	  (func $cp (export "cp") (param $d i32) (param $s i32) (param $n i32)
	    local.get $d local.get $s local.get $n memory.copy)
	  (func $fill (export "fill") (param $d i32) (param $v i32) (param $n i32)
	    local.get $d local.get $v local.get $n memory.fill)
	  (func $peek (export "peek") (param $a i32) (result i32)
	    local.get $a i32.load8_u))`
	inst := instance(t, src)
	const size = 65536
	ok := [][2]interface{}{
		{"cp", []uint64{size, size, 0}},
		{"fill", []uint64{size, 9, 0}},
		{"cp", []uint64{65531, 65530, 5}}, // overlapping, backward
	}
	for _, c := range ok {
		if _, err := inst.Call(c[0].(string), c[1].([]uint64)...); err != nil {
			t.Fatalf("%s%v: %v", c[0], c[1], err)
		}
	}
	for _, args := range [][]uint64{{65533, 0, 4}, {0, 65533, 4}, {size + 1, 0, 0}, {0, 0, 0xffffffff}} {
		_, err := inst.Call("cp", args...)
		assertTrap(t, err, TrapOutOfBounds)
	}
	for _, args := range [][]uint64{{65533, 9, 4}, {size + 1, 9, 0}, {65533, 0, 4}} {
		_, err := inst.Call("fill", args...)
		assertTrap(t, err, TrapOutOfBounds)
	}
	for i, want := range "aabcde" {
		res, _ := inst.Call("peek", EncodeI32(int32(65530+i)))
		if rune(res[0]) != want {
			t.Fatalf("byte %d = %q, want %q", 65530+i, rune(res[0]), want)
		}
	}
}

// fusedCases put each fused sequence in a function whose parameters feed
// it. Joined with spaces the sequence fuses; with a nop between every two
// instructions nothing can, since only adjacent source instructions fuse.
var fusedCases = []struct {
	op             Op
	params, result string
	body           []string
}{
	{opLocalGet2, "i32 i32", "i32", []string{"local.get 0", "local.get 1", "i32.sub"}},
	{opI32ConstMul, "i32", "i32", []string{"local.get 0", "i32.const -7", "i32.mul"}},
	{opI32MulAdd, "i32 i32 i32", "i32", []string{"local.get 0", "local.get 1", "local.get 2", "local.get 0", "i32.sub", "i32.mul", "i32.add"}},
	{opI32AddF64Load, "i32 i32", "f64", []string{"local.get 0", "local.get 1", "i32.add", "f64.load offset=3"}},
	{opLocalGetI32Add, "i32 i32", "i32", []string{"local.get 0", "i32.const 3", "local.get 1", "i32.add", "i32.sub"}},
	{opLocalGetI32Mul, "i32 i32", "i32", []string{"local.get 0", "i32.const 3", "local.get 1", "i32.mul", "i32.sub"}},
	{opBrUnless, "i32", "i32", []string{"block (result i32)", "i32.const 5", "local.get 0", "i32.eqz", "br_if 0", "drop", "i32.const 9", "end"}},
	{opI32AddConst, "i32", "i32", []string{"local.get 0", "i32.const 5", "i32.add"}},
	{opF64MulAdd, "f64 f64 f64", "f64", []string{"local.get 0", "local.get 1", "local.get 2", "f64.mul", "f64.add"}},
	{opBrUnlessLtS, "i32 i32", "i32", []string{"block (result i32)", "i32.const 5", "local.get 0", "local.get 1", "i32.lt_s", "i32.eqz", "br_if 0", "drop", "i32.const 9", "end"}},
	{opLocalAddConst, "i32 i32", "i32", []string{"local.get 0", "i32.const 5", "i32.add", "local.set 1", "local.get 1"}},
	{opF64LoadScaled, "i32 i32", "f64", []string{"local.get 0", "local.get 1", "i32.const 8", "i32.mul", "i32.add", "f64.load offset=2"}},
}

// edgeArg draws a raw argument of type typ, often an edge value.
func edgeArg(r *rand.Rand, typ string) uint64 {
	if typ == "f64" {
		edges := []float64{0, math.Copysign(0, -1), 1, -1.5, math.Inf(1), math.NaN(), math.MaxFloat64}
		if r.Intn(3) == 0 {
			return EncodeF64(edges[r.Intn(len(edges))])
		}
		return EncodeF64(r.NormFloat64() * 1e3)
	}
	edges := []int32{0, 1, -1, 2, math.MinInt32, math.MaxInt32, 8184, 8190, 65528, 65536}
	if r.Intn(2) == 0 {
		return EncodeI32(edges[r.Intn(len(edges))])
	}
	return EncodeI32(int32(r.Uint32()))
}

// TestFusedMatchesUnfused runs every fused sequence against the same code
// kept apart by nops, on random and edge inputs: results and traps agree.
func TestFusedMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := map[Op]bool{}
	for _, c := range fusedCases {
		build := func(sep string) *Instance {
			src := fmt.Sprintf(`(module
			  (memory 1 1)
			  (data (i32.const 0) "\01\23\45\67\89\ab\cd\ef\fe\dc\ba\98\76\54\32\10\00\ff\00\ff")
			  (func $f (export "f") (param %s) (result %s) %s))`, c.params, c.result, strings.Join(c.body, sep))
			return instance(t, src)
		}
		fused, apart := build(" "), build(" nop ")
		has := func(inst *Instance) bool {
			for _, in := range inst.mod.Funcs[0].lowered.code {
				if in.op == c.op {
					return true
				}
			}
			return false
		}
		if !has(fused) || has(apart) {
			t.Fatalf("%s: fused in the joined body %v, in the nop-separated body %v", c.op, has(fused), has(apart))
		}
		seen[c.op] = true
		types := strings.Fields(c.params)
		for n := 0; n < 300; n++ {
			args := make([]uint64, len(types))
			for k, typ := range types {
				args[k] = edgeArg(r, typ)
			}
			got, gerr := fused.Call("f", args...)
			want, werr := apart.Call("f", args...)
			gk, gTrap := trapKind(gerr)
			wk, wTrap := trapKind(werr)
			if gTrap != wTrap || gk != wk || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s%v: fused err %v, unfused err %v", c.op, args, gerr, werr)
			}
			if gerr == nil && got[0] != want[0] && !(c.result == "f64" && math.IsNaN(DecodeF64(got[0])) && math.IsNaN(DecodeF64(want[0]))) {
				t.Fatalf("%s%v: fused %#x, unfused %#x", c.op, args, got[0], want[0])
			}
		}
	}
	for _, f := range fusions {
		if !seen[f.op] {
			t.Errorf("no fused-vs-unfused case for %s", f.op)
		}
	}
}

func trapKind(err error) (TrapKind, bool) {
	var tr *Trap
	if errors.As(err, &tr) {
		return tr.Kind, true
	}
	return 0, false
}

// TestLongFallThroughIsCharged: a branch whose fall-through block costs
// more steps than linstr.fall can hold gets an opCharge after it. The
// block is 70000 nops, which lowering drops but Steps still counts.
func TestLongFallThroughIsCharged(t *testing.T) {
	nops := strings.Repeat("nop ", 70000)
	for _, body := range []string{
		"block local.get $p br_if 0 " + nops + " end i32.const 7",
		"local.get $p i32.eqz if " + nops + " end i32.const 7",
	} {
		mod, err := AssembleAndValidate(`(module (func $f (export "f") (param $p i32) (result i32) ` + body + `))`)
		if err != nil {
			t.Fatal(err)
		}
		charges := 0
		for _, in := range mod.Funcs[0].lowered.code {
			if in.op == opCharge {
				charges++
			}
		}
		if charges != 1 {
			t.Fatalf("%d opCharge instructions, want 1", charges)
		}
		const long = 70005 // the three instructions before the nops, the nops, end and i32.const
		for _, c := range []struct {
			p     int32
			steps uint64
		}{{0, long}, {1, 5}} {
			for _, fuel := range []int64{-1, int64(c.steps), int64(c.steps) - 1} {
				inst, err := Instantiate(mod, nil, WithFuel(fuel))
				if err != nil {
					t.Fatal(err)
				}
				res, err := inst.Call("f", EncodeI32(c.p))
				if fuel == int64(c.steps)-1 {
					assertTrap(t, err, TrapFuelExhausted)
					if inst.Steps > uint64(fuel) {
						t.Fatalf("p=%d fuel %d: %d steps", c.p, fuel, inst.Steps)
					}
					continue
				}
				if err != nil || DecodeI32(res[0]) != 7 || inst.Steps != c.steps {
					t.Fatalf("p=%d fuel %d: %v, %v in %d steps, want 7 in %d", c.p, fuel, res, err, inst.Steps, c.steps)
				}
			}
		}
	}
}
