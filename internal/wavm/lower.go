package wavm

import (
	"fmt"
	"math"
)

// Lowering turns a validated function body into the form the interpreter
// runs. It is done once per module, at the end of Validate (and again in
// DecodeObject, since the lowered form is not serialised), so Instantiate
// and every call pay nothing for it:
//
//   - nop, block, loop and end do nothing at run time and are dropped;
//     else becomes a plain jump. Branch targets are remapped to lowered PCs.
//   - Short runs of adjacent source instructions that dominate the dynamic
//     instruction mix (see fusions) become one lowered instruction, unless
//     a branch targets any but the first of them, so control never enters
//     a fused instruction halfway.
//   - Steps and fuel are charged per block rather than per instruction.
//     Every transfer of control (function entry, a taken branch, the
//     fall-through of br_if and if, the jump of else) charges the number of
//     source instructions from its destination up to and including the
//     next branching instruction. Straight-line code in between always runs
//     to completion unless the call traps, so for a call that completes
//     Steps equals the number of source instructions executed, elided ones
//     included.

// Lowered-only opcodes. They never appear in Function.Code: Validate
// rejects them there, so an uploaded module cannot name one.
const (
	opJump           Op = 192 + iota // else: jump to a, no stack adjustment
	opLocalGet2                      // local.get a; local.get b
	opI32ConstMul                    // i32.const c; i32.mul
	opI32MulAdd                      // i32.mul; i32.add
	opI32AddF64Load                  // i32.add; f64.load offset=a
	opLocalGetI32Add                 // local.get a; i32.add
	opLocalGetI32Mul                 // local.get a; i32.mul
	opBrUnless                       // i32.eqz; br_if
	opI32AddConst                    // i32.const c; i32.add
	opF64MulAdd                      // f64.mul; f64.add
	opBrUnlessLtS                    // i32.lt_s; i32.eqz; br_if
	opLocalAddConst                  // local.get a; i32.const c; i32.add; local.set b
	opF64LoadScaled                  // i32.const c; i32.mul; i32.add; f64.load offset=a
	opCharge                         // charge c steps: a long fall-through block
)

// firstLoweredOp is the lowest lowered-only opcode.
const firstLoweredOp = opJump

// loweredNames names the lowered-only opcodes for Op.String. They are kept
// out of opNames so the text assembler cannot name them.
var loweredNames = map[Op]string{
	opJump: "jump", opLocalGet2: "local.get*2", opI32ConstMul: "i32.const+i32.mul",
	opI32MulAdd: "i32.mul+i32.add", opI32AddF64Load: "i32.add+f64.load",
	opLocalGetI32Add: "local.get+i32.add", opLocalGetI32Mul: "local.get+i32.mul",
	opBrUnless: "i32.eqz+br_if", opI32AddConst: "i32.const+i32.add", opF64MulAdd: "f64.mul+f64.add",
	opBrUnlessLtS: "i32.lt_s+i32.eqz+br_if", opLocalAddConst: "local.get+i32.const+i32.add+local.set",
	opF64LoadScaled: "i32.const+i32.mul+i32.add+f64.load", opCharge: "charge",
}

// linstr is one lowered instruction. It is 16 bytes; its fields by opcode:
//   - br, br_if and the fused branches: a is the target PC, b the frame
//     slot where the label's values start (locals plus the label's operand
//     height), arity the label arity, c the steps charged when the branch
//     is taken and fall those charged when it falls through;
//   - if: a is the false target PC, c and fall as for br_if; opJump (else):
//     a is the target, c the steps charged;
//   - a fall-through costing more than fall can hold is charged by an
//     opCharge, with the steps in c, placed right after the branch;
//   - constants: c holds the low 32 bits of the payload and b the high 32;
//     opI32ConstMul and opI32AddConst keep their constant in c;
//   - opLocalGet2: a and b are the locals; opLocalAddConst: a is read, b is
//     set, c is the constant; opF64LoadScaled: a is the offset, c the scale;
//   - every other instruction: a is Instr.A.
type linstr struct {
	op    Op
	arity uint8
	fall  uint16
	a     int32
	b     int32
	c     int32
}

// ltarget is one lowered br_table destination.
type ltarget struct {
	pc, slot, arity, cost int32
}

// lowered is the executable form of one Function.
type lowered struct {
	code   []linstr
	tables [][]ltarget
	// entry is the steps charged on entering the function.
	entry   int32
	params  int
	locals  int // params plus declared locals
	results int
	// frame is the value-stack slots one activation uses: its locals
	// followed by its operand stack.
	frame int
}

// lowerModule lowers every function of a validated module.
func lowerModule(m *Module) error {
	for fi := range m.Funcs {
		fn := &m.Funcs[fi]
		if fn.Type < 0 || fn.Type >= len(m.Types) {
			return fmt.Errorf("wavm: func %d has invalid type index %d", fi+len(m.Imports), fn.Type)
		}
		lf, err := lowerFunc(m.Types[fn.Type], fn)
		if err != nil {
			return fmt.Errorf("wavm: func %d (%s): %w", fi+len(m.Imports), fn.Name, err)
		}
		fn.lowered = lf
	}
	return nil
}

// isTerminator reports whether op ends a charged block: it transfers
// control, or ends the call.
func isTerminator(op Op) bool {
	switch op {
	case OpBr, OpBrIf, OpBrTable, OpIf, OpElse, OpReturn, OpUnreachable:
		return true
	}
	return false
}

// fusions are the source sequences lowering replaces with one lowered
// instruction: the hottest adjacent pairs of the kernel suite's dynamic
// instruction mix, and the loop-control and f64 array-indexing sequences
// fcc emits for every counted loop. At each PC the first sequence that
// matches wins, so longer sequences come first.
var fusions = []struct {
	seq []Op
	op  Op
}{
	{[]Op{OpLocalGet, OpI32Const, OpI32Add, OpLocalSet}, opLocalAddConst},
	{[]Op{OpI32Const, OpI32Mul, OpI32Add, OpF64Load}, opF64LoadScaled},
	{[]Op{OpI32LtS, OpI32Eqz, OpBrIf}, opBrUnlessLtS},
	{[]Op{OpLocalGet, OpLocalGet}, opLocalGet2},
	{[]Op{OpI32Const, OpI32Mul}, opI32ConstMul},
	{[]Op{OpI32Mul, OpI32Add}, opI32MulAdd},
	{[]Op{OpI32Add, OpF64Load}, opI32AddF64Load},
	{[]Op{OpLocalGet, OpI32Add}, opLocalGetI32Add},
	{[]Op{OpLocalGet, OpI32Mul}, opLocalGetI32Mul},
	{[]Op{OpI32Eqz, OpBrIf}, opBrUnless},
	{[]Op{OpI32Const, OpI32Add}, opI32AddConst},
	{[]Op{OpF64Mul, OpF64Add}, opF64MulAdd},
}

// fusionAt returns the fused opcode and length of the first sequence in
// fusions that starts at pc, if none of its later instructions is a branch
// target: control must never enter a fused instruction halfway.
func fusionAt(code []Instr, pc int, target []bool) (Op, int) {
next:
	for _, f := range fusions {
		if pc+len(f.seq) > len(code) {
			continue
		}
		for j, op := range f.seq {
			if code[pc+j].Op != op || j > 0 && target[pc+j] {
				continue next
			}
		}
		return f.op, len(f.seq)
	}
	return 0, 0
}

func lowerFunc(ft FuncType, fn *Function) (*lowered, error) {
	code := fn.Code
	n := len(code)
	inRange := func(pc int32) bool { return pc >= 0 && int(pc) <= n }

	// Branch targets, which no fused sequence may run through.
	target := make([]bool, n+1)
	for pc, in := range code {
		if in.Op >= firstLoweredOp {
			return nil, fmt.Errorf("pc %d: opcode %d exists only in lowered code", pc, in.Op)
		}
		switch in.Op {
		case OpBr, OpElse, OpBrIf, OpIf:
			if !inRange(in.A) {
				return nil, fmt.Errorf("pc %d: branch target %d out of range", pc, in.A)
			}
			target[in.A] = true
			if in.Op == OpBrIf || in.Op == OpIf {
				target[pc+1] = true
			}
		case OpBrTable:
			if in.A < 0 || int(in.A) >= len(fn.BrTables) || len(fn.BrTables[in.A]) == 0 {
				return nil, fmt.Errorf("pc %d: invalid br_table %d", pc, in.A)
			}
			for _, t := range fn.BrTables[in.A] {
				if !inRange(t.PC) {
					return nil, fmt.Errorf("pc %d: br_table target %d out of range", pc, t.PC)
				}
				target[t.PC] = true
			}
		}
	}

	// ext[pc] is the steps charged on a transfer to pc: the source
	// instructions from pc up to and including the next terminator.
	ext := make([]int32, n+1)
	for pc := n - 1; pc >= 0; pc-- {
		ext[pc] = 1
		if !isTerminator(code[pc].Op) {
			ext[pc] += ext[pc+1]
		}
	}

	locals := len(ft.Params) + len(fn.Locals)
	slot := func(height int64) int32 { return int32(locals) + int32(height) }
	lf := &lowered{
		entry:   ext[0],
		params:  len(ft.Params),
		locals:  locals,
		results: len(ft.Results),
		frame:   locals + fn.MaxStack,
	}

	// lpc maps a source PC to the lowered PC that runs in its place; an
	// elided instruction maps to the next instruction that is emitted.
	// Branch immediates hold source PCs until the remap below.
	lpc := make([]int32, n+1)
	out := make([]linstr, 0, n+1)
	// emitBranch appends a conditional branch that falls through into a
	// block costing fall steps.
	emitBranch := func(l linstr, fall int32) {
		if fall <= math.MaxUint16 {
			l.fall = uint16(fall)
			out = append(out, l)
			return
		}
		out = append(out, l, linstr{op: opCharge, c: fall})
	}
	for pc := 0; pc < n; pc++ {
		in := code[pc]
		lpc[pc] = int32(len(out))
		switch in.Op {
		case OpNop, OpBlock, OpLoop, OpEnd:
			continue
		}
		if op, k := fusionAt(code, pc, target); k > 0 {
			seq := code[pc : pc+k]
			l := linstr{op: op}
			switch op {
			case opLocalGet2:
				l.a, l.b = seq[0].A, seq[1].A
			case opI32ConstMul, opI32AddConst:
				l.c = int32(seq[0].C)
			case opI32AddF64Load:
				l.a = seq[1].A
			case opLocalGetI32Add, opLocalGetI32Mul:
				l.a = seq[0].A
			case opBrUnless, opBrUnlessLtS:
				l = lowerBranch(seq[k-1], op, ext, slot)
			case opLocalAddConst:
				l.a, l.b, l.c = seq[0].A, seq[3].A, int32(seq[1].C)
			case opF64LoadScaled:
				l.a, l.c = seq[3].A, int32(seq[0].C)
			}
			for j := 1; j < k; j++ {
				lpc[pc+j] = lpc[pc]
			}
			if op == opBrUnless || op == opBrUnlessLtS {
				emitBranch(l, ext[pc+k])
			} else {
				out = append(out, l)
			}
			pc += k - 1
			continue
		}
		switch in.Op {
		case OpBr:
			out = append(out, lowerBranch(in, in.Op, ext, slot))
		case OpBrIf:
			emitBranch(lowerBranch(in, in.Op, ext, slot), ext[pc+1])
		case OpIf:
			emitBranch(linstr{op: OpIf, a: in.A, c: ext[in.A]}, ext[pc+1])
		case OpElse:
			out = append(out, linstr{op: opJump, a: in.A, c: ext[in.A]})
		case OpI32Const, OpI64Const, OpF32Const, OpF64Const:
			out = append(out, linstr{op: in.Op, b: int32(in.C >> 32), c: int32(in.C)})
		default:
			out = append(out, linstr{op: in.Op, a: in.A})
		}
	}
	// Falling off the end, and branches to the function's own label, land
	// on an implicit return.
	lpc[n] = int32(len(out))
	out = append(out, linstr{op: OpReturn})

	for k := range out {
		switch out[k].op {
		case OpBr, OpBrIf, opBrUnless, opBrUnlessLtS, OpIf, opJump:
			out[k].a = lpc[out[k].a]
		}
	}
	lf.tables = make([][]ltarget, len(fn.BrTables))
	for ti, ts := range fn.BrTables {
		lt := make([]ltarget, len(ts))
		for e, t := range ts {
			lt[e] = ltarget{pc: lpc[t.PC], slot: slot(int64(t.Height)), arity: t.Arity, cost: ext[t.PC]}
		}
		lf.tables[ti] = lt
	}
	// Keep only what is used: lowered code lives as long as its Module.
	lf.code = make([]linstr, len(out))
	copy(lf.code, out)
	return lf, nil
}

// lowerBranch lowers br or br_if as op, with its target still a source PC.
func lowerBranch(in Instr, op Op, ext []int32, slot func(int64) int32) linstr {
	return linstr{op: op, a: in.A, arity: uint8(in.B), b: slot(in.C), c: ext[in.A]}
}
