package wavm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"faasm.dev/faasm/internal/wamem"
)

// HostFunc is a host-interface thunk: the trusted implementation injected
// into the guest's import space during the linking phase (Fig 3). Arguments
// and results use the VM's raw 64-bit value encoding (see EncodeF64 etc.).
// A non-nil error aborts the guest with a TrapHostError. args aliases the
// instance's value stack: it is valid only until the host function returns.
type HostFunc func(inst *Instance, args []uint64) ([]uint64, error)

// HostModule groups host functions under an import module name.
type HostModule map[string]HostFunc

// DefaultMaxCallDepth bounds guest recursion; exceeding it raises
// TrapStackOverflow rather than exhausting the Go stack.
const DefaultMaxCallDepth = 512

// Instance is an executable Faaslet function: a validated module linked with
// its host interface and bound to a linear memory.
type Instance struct {
	mod     *Module
	mem     *wamem.Memory
	globals []uint64
	table   []int32
	hosts   []HostFunc

	// Steps counts executed source instructions, the VM-level analogue of
	// the CPU cycle accounting in Table 3; the cgroup layer charges from
	// it. It is charged a block at a time on entry to the block, so after a
	// call that completes it equals the instructions the call executed,
	// elided structure ops included; after a trap it may also count the
	// unexecuted rest of the trapping block.
	Steps uint64
	// Fuel, when ≥ 0, is the remaining instruction budget, charged per
	// block like Steps. A block costing more than the fuel left traps
	// TrapFuelExhausted before it runs, so Steps never exceeds the budget.
	// It implements the CPU quota half of resource isolation.
	Fuel int64

	// stack holds every activation's locals and operand stack. top is its
	// first free slot while a host function runs, so a call the host makes
	// back into the instance starts above the caller's frames.
	stack []uint64
	top   int

	maxDepth  int
	skipStart bool
}

// InstanceOption configures instantiation.
type InstanceOption func(*Instance)

// WithMemory binds an existing memory (e.g. one restored from a
// Proto-Faaslet snapshot) instead of allocating a fresh one. Data segments
// are not re-applied to restored memories.
func WithMemory(m *wamem.Memory) InstanceOption {
	return func(i *Instance) { i.mem = m }
}

// WithFuel enables CPU metering with a budget of fuel source
// instructions. Fuel is charged per basic block on entry, so a call traps
// TrapFuelExhausted up to one block before the budget is spent, never after.
func WithFuel(fuel int64) InstanceOption {
	return func(i *Instance) { i.Fuel = fuel }
}

// WithMaxCallDepth overrides the guest recursion bound.
func WithMaxCallDepth(d int) InstanceOption {
	return func(i *Instance) { i.maxDepth = d }
}

// WithSkipStart suppresses the module's start function. Used when resuming
// from a Proto-Faaslet snapshot, whose memory already reflects
// initialisation.
func WithSkipStart() InstanceOption {
	return func(i *Instance) { i.skipStart = true }
}

// Instantiate links a validated module against its host imports and
// prepares it for execution. Unvalidated modules are refused: code must
// pass the trusted code-generation phase first.
func Instantiate(mod *Module, imports map[string]HostModule, opts ...InstanceOption) (*Instance, error) {
	if !mod.Validated {
		return nil, errors.New("wavm: refusing to instantiate unvalidated module")
	}
	for fi := range mod.Funcs {
		if mod.Funcs[fi].lowered == nil {
			return nil, errors.New("wavm: module is marked validated but was not lowered by Validate or DecodeObject")
		}
	}
	inst := &Instance{mod: mod, Fuel: -1, maxDepth: DefaultMaxCallDepth}
	for _, o := range opts {
		o(inst)
	}
	if inst.mem == nil && mod.MemMin > 0 {
		mem, err := wamem.New(mod.MemMin, mod.MemMax)
		if err != nil {
			return nil, err
		}
		inst.mem = mem
		for _, d := range mod.Data {
			if err := mem.WriteBytes(d.Offset, d.Bytes); err != nil {
				return nil, fmt.Errorf("wavm: data segment at %d: %w", d.Offset, err)
			}
		}
	}
	inst.globals = make([]uint64, len(mod.Globals))
	for i, g := range mod.Globals {
		inst.globals[i] = rawGlobal(g)
	}
	inst.table = append([]int32(nil), mod.Table...)
	inst.hosts = make([]HostFunc, len(mod.Imports))
	for i, imp := range mod.Imports {
		hm, ok := imports[imp.Module]
		if !ok {
			return nil, fmt.Errorf("wavm: unresolved import module %q", imp.Module)
		}
		fn, ok := hm[imp.Name]
		if !ok {
			return nil, fmt.Errorf("wavm: unresolved import %s.%s", imp.Module, imp.Name)
		}
		inst.hosts[i] = fn
	}
	if mod.Start >= 0 && !inst.skipStart {
		if _, err := inst.CallIndex(mod.Start); err != nil {
			return nil, fmt.Errorf("wavm: start function: %w", err)
		}
	}
	return inst, nil
}

func rawGlobal(g Global) uint64 {
	switch g.Type {
	case I32:
		return uint64(uint32(g.Init))
	case F32:
		return uint64(uint32(g.Init))
	default:
		return uint64(g.Init)
	}
}

// Memory returns the instance's linear memory (nil if the module has none).
func (i *Instance) Memory() *wamem.Memory { return i.mem }

// Module returns the underlying module.
func (i *Instance) Module() *Module { return i.mod }

// GlobalValue reads global g's raw value (for snapshots and tests).
func (i *Instance) GlobalValue(g int) (uint64, error) {
	if g < 0 || g >= len(i.globals) {
		return 0, fmt.Errorf("wavm: global %d out of range", g)
	}
	return i.globals[g], nil
}

// SetGlobalValue overwrites global g's raw value (snapshot restore path).
func (i *Instance) SetGlobalValue(g int, v uint64) error {
	if g < 0 || g >= len(i.globals) {
		return fmt.Errorf("wavm: global %d out of range", g)
	}
	i.globals[g] = v
	return nil
}

// Globals returns a copy of all global raw values.
func (i *Instance) Globals() []uint64 { return append([]uint64(nil), i.globals...) }

// Call invokes the exported function name with raw-encoded arguments.
func (i *Instance) Call(name string, args ...uint64) ([]uint64, error) {
	idx, ok := i.mod.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("wavm: no exported function %q", name)
	}
	return i.CallIndex(idx, args...)
}

// CallIndex invokes a function by absolute index.
func (i *Instance) CallIndex(idx int, args ...uint64) ([]uint64, error) {
	ft, err := i.mod.FuncTypeAt(idx)
	if err != nil {
		return nil, err
	}
	if len(args) != len(ft.Params) {
		return nil, fmt.Errorf("wavm: function %d wants %d args, got %d", idx, len(ft.Params), len(args))
	}
	// A call made from inside a host function starts above the frames of
	// the call already running.
	base := i.top
	i.reserve(base + len(args) + len(ft.Results))
	copy(i.stack[base:], args)
	end, err := i.callAt(idx, base+len(args), 0)
	if err != nil {
		return nil, err
	}
	if end == base {
		return nil, nil
	}
	return append([]uint64(nil), i.stack[base:end]...), nil
}

// reserve makes the value stack at least n slots long. Growing moves it, so
// running frames re-slice it after every call.
func (i *Instance) reserve(n int) {
	if n <= len(i.stack) {
		return
	}
	grown := make([]uint64, max(n, 2*len(i.stack), 16))
	copy(grown, i.stack)
	i.stack = grown
}

// callAt calls function fidx on the arguments at i.stack[top-params:top]
// and leaves its results in their place, returning the new top.
func (i *Instance) callAt(fidx, top, depth int) (int, error) {
	if depth > i.maxDepth {
		return 0, trap(TrapStackOverflow, fidx)
	}
	nimp := len(i.mod.Imports)
	if fidx >= nimp {
		lf := i.mod.Funcs[fidx-nimp].lowered
		base := top - lf.params
		i.reserve(base + lf.frame)
		if err := i.run(fidx, lf, base, depth); err != nil {
			return 0, err
		}
		return base + lf.results, nil
	}
	ft := &i.mod.Types[i.mod.Imports[fidx].Type]
	base := top - len(ft.Params)
	outer := i.top
	i.top = top
	res, err := i.hosts[fidx](i, i.stack[base:top:top])
	i.top = outer
	if err != nil {
		var t *Trap
		if errors.As(err, &t) {
			return 0, err
		}
		return 0, &Trap{Kind: TrapHostError, Func: fidx, Wrapped: err}
	}
	n := len(ft.Results)
	if len(res) < n {
		return 0, &Trap{Kind: TrapHostError, Func: fidx,
			Wrapped: fmt.Errorf("host function returned %d results, want %d", len(res), n)}
	}
	i.reserve(base + n)
	copy(i.stack[base:base+n], res)
	return base + n, nil
}

// charge bills a block of cost source instructions to Steps, refusing it
// when a fuel budget is set and cannot cover the whole block.
func (i *Instance) charge(cost int32) bool {
	if i.Fuel >= 0 {
		if int64(cost) > i.Fuel {
			return false
		}
		i.Fuel -= int64(cost)
	}
	i.Steps += uint64(cost)
	return true
}

// addr computes the effective address of a size-byte access at dynamic
// address dyn plus static offset off. The sum is taken in 64 bits, so it
// cannot wrap, and ok is false when the access would end past memory.
func addr(mem *wamem.Memory, dyn uint64, off int32, size uint64) (ea uint32, ok bool) {
	e := uint64(uint32(dyn)) + uint64(uint32(off))
	return uint32(e), e+size <= uint64(mem.Size())
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// run executes one activation of a module function whose frame starts at
// i.stack[base]: its locals (the arguments already in place), then its
// operand stack. A result is left in the frame's first slot.
func (i *Instance) run(fidx int, lf *lowered, base, depth int) error {
	if !i.charge(lf.entry) {
		return trap(TrapFuelExhausted, fidx)
	}
	s := i.stack[base : base+lf.frame]
	clear(s[lf.params:lf.locals])
	code := lf.code
	mem := i.mem
	sp := lf.locals // next free operand slot
	pc := 0
	for {
		in := &code[pc]
		pc++
		switch in.op {
		case OpUnreachable:
			return trap(TrapUnreachable, fidx)

		case OpIf:
			sp--
			if s[sp] != 0 {
				if !i.charge(int32(in.fall)) {
					return trap(TrapFuelExhausted, fidx)
				}
				continue
			}
			if !i.charge(in.c) {
				return trap(TrapFuelExhausted, fidx)
			}
			pc = int(in.a)
		case opJump:
			if !i.charge(in.c) {
				return trap(TrapFuelExhausted, fidx)
			}
			pc = int(in.a)
		case OpBr:
			if in.arity != 0 {
				s[in.b] = s[sp-1]
			}
			sp = int(in.b) + int(in.arity)
			if !i.charge(in.c) {
				return trap(TrapFuelExhausted, fidx)
			}
			pc = int(in.a)
		case opCharge:
			if !i.charge(in.c) {
				return trap(TrapFuelExhausted, fidx)
			}
		case OpBrIf, opBrUnless:
			sp--
			if (s[sp] != 0) == (in.op == OpBrIf) {
				if in.arity != 0 {
					s[in.b] = s[sp-1]
				}
				sp = int(in.b) + int(in.arity)
				if !i.charge(in.c) {
					return trap(TrapFuelExhausted, fidx)
				}
				pc = int(in.a)
			} else if !i.charge(int32(in.fall)) {
				return trap(TrapFuelExhausted, fidx)
			}
		case opBrUnlessLtS:
			sp -= 2
			if int32(s[sp]) >= int32(s[sp+1]) {
				if in.arity != 0 {
					s[in.b] = s[sp-1]
				}
				sp = int(in.b) + int(in.arity)
				if !i.charge(in.c) {
					return trap(TrapFuelExhausted, fidx)
				}
				pc = int(in.a)
			} else if !i.charge(int32(in.fall)) {
				return trap(TrapFuelExhausted, fidx)
			}
		case OpBrTable:
			targets := lf.tables[in.a]
			sp--
			idx := int(uint32(s[sp]))
			if idx >= len(targets)-1 {
				idx = len(targets) - 1 // final entry is the default
			}
			t := &targets[idx]
			if t.arity != 0 {
				s[t.slot] = s[sp-1]
			}
			sp = int(t.slot + t.arity)
			if !i.charge(t.cost) {
				return trap(TrapFuelExhausted, fidx)
			}
			pc = int(t.pc)

		case OpReturn:
			if lf.results == 1 {
				s[0] = s[sp-1]
			}
			return nil

		case OpCall:
			top, err := i.callAt(int(in.a), base+sp, depth+1)
			if err != nil {
				return err
			}
			s = i.stack[base : base+lf.frame]
			sp = top - base
		case OpCallIndirect:
			sp--
			elem := int(uint32(s[sp]))
			if elem >= len(i.table) || i.table[elem] < 0 {
				return trap(TrapUndefinedElement, fidx)
			}
			callee := int(i.table[elem])
			cft, err := i.mod.FuncTypeAt(callee)
			if err != nil {
				return err
			}
			if !cft.Equal(i.mod.Types[in.a]) {
				return trap(TrapIndirectTypeMismatch, fidx)
			}
			top, err := i.callAt(callee, base+sp, depth+1)
			if err != nil {
				return err
			}
			s = i.stack[base : base+lf.frame]
			sp = top - base

		case OpDrop:
			sp--
		case OpSelect:
			sp -= 2
			if s[sp+1] == 0 {
				s[sp-1] = s[sp]
			}

		case OpLocalGet:
			s[sp] = s[in.a]
			sp++
		case OpLocalSet:
			sp--
			s[in.a] = s[sp]
		case OpLocalTee:
			s[in.a] = s[sp-1]
		case OpGlobalGet:
			s[sp] = i.globals[in.a]
			sp++
		case OpGlobalSet:
			sp--
			i.globals[in.a] = s[sp]

		case OpI32Const, OpF32Const:
			s[sp] = uint64(uint32(in.c))
			sp++
		case OpI64Const, OpF64Const:
			s[sp] = uint64(uint32(in.c)) | uint64(uint32(in.b))<<32
			sp++

		// --- fused pairs ---
		case opLocalGet2:
			s[sp] = s[in.a]
			s[sp+1] = s[in.b]
			sp += 2
		case opI32ConstMul:
			s[sp-1] = uint64(uint32(s[sp-1]) * uint32(in.c))
		case opI32MulAdd:
			sp -= 2
			s[sp-1] = uint64(uint32(s[sp-1]) + uint32(s[sp])*uint32(s[sp+1]))
		case opI32AddConst:
			s[sp-1] = uint64(uint32(s[sp-1]) + uint32(in.c))
		case opF64MulAdd:
			sp -= 2
			// The explicit conversion rounds the product, as two wasm
			// instructions would, and keeps Go from fusing it into an FMA.
			s[sp-1] = EncodeF64(DecodeF64(s[sp-1]) + float64(DecodeF64(s[sp])*DecodeF64(s[sp+1])))
		case opLocalGetI32Add:
			s[sp-1] = uint64(uint32(s[sp-1]) + uint32(s[in.a]))
		case opLocalGetI32Mul:
			s[sp-1] = uint64(uint32(s[sp-1]) * uint32(s[in.a]))
		case opLocalAddConst:
			s[in.b] = uint64(uint32(s[in.a]) + uint32(in.c))
		case opF64LoadScaled:
			sp--
			ea, ok := addr(mem, uint64(uint32(s[sp-1])+uint32(s[sp])*uint32(in.c)), in.a, 8)
			if !ok {
				return trap(TrapOutOfBounds, fidx)
			}
			v, err := mem.ReadU64(ea)
			if err != nil {
				return trap(TrapOutOfBounds, fidx)
			}
			s[sp-1] = v
		case opI32AddF64Load:
			sp--
			ea, ok := addr(mem, uint64(uint32(s[sp-1])+uint32(s[sp])), in.a, 8)
			if !ok {
				return trap(TrapOutOfBounds, fidx)
			}
			v, err := mem.ReadU64(ea)
			if err != nil {
				return trap(TrapOutOfBounds, fidx)
			}
			s[sp-1] = v

		// --- memory ---
		case OpI32Load, OpF32Load, OpI64Load32U, OpI64Load32S:
			ea, ok := addr(mem, s[sp-1], in.a, 4)
			if !ok {
				return trap(TrapOutOfBounds, fidx)
			}
			v, err := mem.ReadU32(ea)
			if err != nil {
				return trap(TrapOutOfBounds, fidx)
			}
			if in.op == OpI64Load32S {
				s[sp-1] = uint64(int64(int32(v)))
			} else {
				s[sp-1] = uint64(v)
			}
		case OpI64Load, OpF64Load:
			ea, ok := addr(mem, s[sp-1], in.a, 8)
			if !ok {
				return trap(TrapOutOfBounds, fidx)
			}
			v, err := mem.ReadU64(ea)
			if err != nil {
				return trap(TrapOutOfBounds, fidx)
			}
			s[sp-1] = v
		case OpI32Load8U, OpI32Load8S:
			ea, ok := addr(mem, s[sp-1], in.a, 1)
			if !ok {
				return trap(TrapOutOfBounds, fidx)
			}
			v, err := mem.ReadU8(ea)
			if err != nil {
				return trap(TrapOutOfBounds, fidx)
			}
			if in.op == OpI32Load8S {
				s[sp-1] = uint64(uint32(int32(int8(v))))
			} else {
				s[sp-1] = uint64(v)
			}
		case OpI32Load16U, OpI32Load16S:
			ea, ok := addr(mem, s[sp-1], in.a, 2)
			if !ok {
				return trap(TrapOutOfBounds, fidx)
			}
			v, err := mem.ReadU16(ea)
			if err != nil {
				return trap(TrapOutOfBounds, fidx)
			}
			if in.op == OpI32Load16S {
				s[sp-1] = uint64(uint32(int32(int16(v))))
			} else {
				s[sp-1] = uint64(v)
			}
		case OpI32Store, OpF32Store, OpI64Store32:
			sp -= 2
			ea, ok := addr(mem, s[sp], in.a, 4)
			if !ok || mem.WriteU32(ea, uint32(s[sp+1])) != nil {
				return trap(TrapOutOfBounds, fidx)
			}
		case OpI64Store, OpF64Store:
			sp -= 2
			ea, ok := addr(mem, s[sp], in.a, 8)
			if !ok || mem.WriteU64(ea, s[sp+1]) != nil {
				return trap(TrapOutOfBounds, fidx)
			}
		case OpI32Store8:
			sp -= 2
			ea, ok := addr(mem, s[sp], in.a, 1)
			if !ok || mem.WriteU8(ea, byte(s[sp+1])) != nil {
				return trap(TrapOutOfBounds, fidx)
			}
		case OpI32Store16:
			sp -= 2
			ea, ok := addr(mem, s[sp], in.a, 2)
			if !ok || mem.WriteU16(ea, uint16(s[sp+1])) != nil {
				return trap(TrapOutOfBounds, fidx)
			}
		case OpMemorySize:
			s[sp] = uint64(uint32(mem.Pages()))
			sp++
		case OpMemoryGrow:
			prev, err := mem.Grow(int(int32(uint32(s[sp-1]))))
			if err != nil {
				s[sp-1] = uint64(uint32(0xffffffff)) // -1 on failure
			} else {
				s[sp-1] = uint64(uint32(prev))
			}
		case OpMemoryCopy:
			sp -= 3
			if mem.Copy(uint32(s[sp]), uint32(s[sp+1]), int(uint32(s[sp+2]))) != nil {
				return trap(TrapOutOfBounds, fidx)
			}
		case OpMemoryFill:
			sp -= 3
			if mem.Fill(uint32(s[sp]), byte(s[sp+1]), int(uint32(s[sp+2]))) != nil {
				return trap(TrapOutOfBounds, fidx)
			}

		// --- i32 ---
		case OpI32Eqz:
			s[sp-1] = b2u(uint32(s[sp-1]) == 0)
		case OpI32Eq:
			sp--
			s[sp-1] = b2u(uint32(s[sp-1]) == uint32(s[sp]))
		case OpI32Ne:
			sp--
			s[sp-1] = b2u(uint32(s[sp-1]) != uint32(s[sp]))
		case OpI32LtS:
			sp--
			s[sp-1] = b2u(int32(s[sp-1]) < int32(s[sp]))
		case OpI32LtU:
			sp--
			s[sp-1] = b2u(uint32(s[sp-1]) < uint32(s[sp]))
		case OpI32GtS:
			sp--
			s[sp-1] = b2u(int32(s[sp-1]) > int32(s[sp]))
		case OpI32GtU:
			sp--
			s[sp-1] = b2u(uint32(s[sp-1]) > uint32(s[sp]))
		case OpI32LeS:
			sp--
			s[sp-1] = b2u(int32(s[sp-1]) <= int32(s[sp]))
		case OpI32LeU:
			sp--
			s[sp-1] = b2u(uint32(s[sp-1]) <= uint32(s[sp]))
		case OpI32GeS:
			sp--
			s[sp-1] = b2u(int32(s[sp-1]) >= int32(s[sp]))
		case OpI32GeU:
			sp--
			s[sp-1] = b2u(uint32(s[sp-1]) >= uint32(s[sp]))
		case OpI32Clz:
			s[sp-1] = uint64(uint32(bits.LeadingZeros32(uint32(s[sp-1]))))
		case OpI32Ctz:
			s[sp-1] = uint64(uint32(bits.TrailingZeros32(uint32(s[sp-1]))))
		case OpI32Popcnt:
			s[sp-1] = uint64(uint32(bits.OnesCount32(uint32(s[sp-1]))))
		case OpI32Add:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) + uint32(s[sp]))
		case OpI32Sub:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) - uint32(s[sp]))
		case OpI32Mul:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) * uint32(s[sp]))
		case OpI32DivS:
			sp--
			n, d := int32(s[sp-1]), int32(s[sp])
			if d == 0 {
				return trap(TrapDivByZero, fidx)
			}
			if n == math.MinInt32 && d == -1 {
				return trap(TrapIntOverflow, fidx)
			}
			s[sp-1] = uint64(uint32(n / d))
		case OpI32DivU:
			sp--
			d := uint32(s[sp])
			if d == 0 {
				return trap(TrapDivByZero, fidx)
			}
			s[sp-1] = uint64(uint32(s[sp-1]) / d)
		case OpI32RemS:
			sp--
			n, d := int32(s[sp-1]), int32(s[sp])
			if d == 0 {
				return trap(TrapDivByZero, fidx)
			}
			if d == -1 {
				s[sp-1] = 0 // also covers MinInt32 % -1, which Go would trap
			} else {
				s[sp-1] = uint64(uint32(n % d))
			}
		case OpI32RemU:
			sp--
			d := uint32(s[sp])
			if d == 0 {
				return trap(TrapDivByZero, fidx)
			}
			s[sp-1] = uint64(uint32(s[sp-1]) % d)
		case OpI32And:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) & uint32(s[sp]))
		case OpI32Or:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) | uint32(s[sp]))
		case OpI32Xor:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) ^ uint32(s[sp]))
		case OpI32Shl:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) << (uint32(s[sp]) & 31))
		case OpI32ShrS:
			sp--
			s[sp-1] = uint64(uint32(int32(s[sp-1]) >> (uint32(s[sp]) & 31)))
		case OpI32ShrU:
			sp--
			s[sp-1] = uint64(uint32(s[sp-1]) >> (uint32(s[sp]) & 31))
		case OpI32Rotl:
			sp--
			s[sp-1] = uint64(bits.RotateLeft32(uint32(s[sp-1]), int(uint32(s[sp])&31)))
		case OpI32Rotr:
			sp--
			s[sp-1] = uint64(bits.RotateLeft32(uint32(s[sp-1]), -int(uint32(s[sp])&31)))

		// --- i64 ---
		case OpI64Eqz:
			s[sp-1] = b2u(s[sp-1] == 0)
		case OpI64Eq:
			sp--
			s[sp-1] = b2u(s[sp-1] == s[sp])
		case OpI64Ne:
			sp--
			s[sp-1] = b2u(s[sp-1] != s[sp])
		case OpI64LtS:
			sp--
			s[sp-1] = b2u(int64(s[sp-1]) < int64(s[sp]))
		case OpI64LtU:
			sp--
			s[sp-1] = b2u(s[sp-1] < s[sp])
		case OpI64GtS:
			sp--
			s[sp-1] = b2u(int64(s[sp-1]) > int64(s[sp]))
		case OpI64GtU:
			sp--
			s[sp-1] = b2u(s[sp-1] > s[sp])
		case OpI64LeS:
			sp--
			s[sp-1] = b2u(int64(s[sp-1]) <= int64(s[sp]))
		case OpI64LeU:
			sp--
			s[sp-1] = b2u(s[sp-1] <= s[sp])
		case OpI64GeS:
			sp--
			s[sp-1] = b2u(int64(s[sp-1]) >= int64(s[sp]))
		case OpI64GeU:
			sp--
			s[sp-1] = b2u(s[sp-1] >= s[sp])
		case OpI64Clz:
			s[sp-1] = uint64(bits.LeadingZeros64(s[sp-1]))
		case OpI64Ctz:
			s[sp-1] = uint64(bits.TrailingZeros64(s[sp-1]))
		case OpI64Popcnt:
			s[sp-1] = uint64(bits.OnesCount64(s[sp-1]))
		case OpI64Add:
			sp--
			s[sp-1] += s[sp]
		case OpI64Sub:
			sp--
			s[sp-1] -= s[sp]
		case OpI64Mul:
			sp--
			s[sp-1] *= s[sp]
		case OpI64DivS:
			sp--
			n, d := int64(s[sp-1]), int64(s[sp])
			if d == 0 {
				return trap(TrapDivByZero, fidx)
			}
			if n == math.MinInt64 && d == -1 {
				return trap(TrapIntOverflow, fidx)
			}
			s[sp-1] = uint64(n / d)
		case OpI64DivU:
			sp--
			if s[sp] == 0 {
				return trap(TrapDivByZero, fidx)
			}
			s[sp-1] /= s[sp]
		case OpI64RemS:
			sp--
			n, d := int64(s[sp-1]), int64(s[sp])
			if d == 0 {
				return trap(TrapDivByZero, fidx)
			}
			if d == -1 {
				s[sp-1] = 0 // also covers MinInt64 % -1, which Go would trap
			} else {
				s[sp-1] = uint64(n % d)
			}
		case OpI64RemU:
			sp--
			if s[sp] == 0 {
				return trap(TrapDivByZero, fidx)
			}
			s[sp-1] %= s[sp]
		case OpI64And:
			sp--
			s[sp-1] &= s[sp]
		case OpI64Or:
			sp--
			s[sp-1] |= s[sp]
		case OpI64Xor:
			sp--
			s[sp-1] ^= s[sp]
		case OpI64Shl:
			sp--
			s[sp-1] <<= s[sp] & 63
		case OpI64ShrS:
			sp--
			s[sp-1] = uint64(int64(s[sp-1]) >> (s[sp] & 63))
		case OpI64ShrU:
			sp--
			s[sp-1] >>= s[sp] & 63
		case OpI64Rotl:
			sp--
			s[sp-1] = bits.RotateLeft64(s[sp-1], int(s[sp]&63))
		case OpI64Rotr:
			sp--
			s[sp-1] = bits.RotateLeft64(s[sp-1], -int(s[sp]&63))

		// --- f64 ---
		case OpF64Eq:
			sp--
			s[sp-1] = b2u(DecodeF64(s[sp-1]) == DecodeF64(s[sp]))
		case OpF64Ne:
			sp--
			s[sp-1] = b2u(DecodeF64(s[sp-1]) != DecodeF64(s[sp]))
		case OpF64Lt:
			sp--
			s[sp-1] = b2u(DecodeF64(s[sp-1]) < DecodeF64(s[sp]))
		case OpF64Gt:
			sp--
			s[sp-1] = b2u(DecodeF64(s[sp-1]) > DecodeF64(s[sp]))
		case OpF64Le:
			sp--
			s[sp-1] = b2u(DecodeF64(s[sp-1]) <= DecodeF64(s[sp]))
		case OpF64Ge:
			sp--
			s[sp-1] = b2u(DecodeF64(s[sp-1]) >= DecodeF64(s[sp]))
		case OpF64Abs:
			s[sp-1] = EncodeF64(math.Abs(DecodeF64(s[sp-1])))
		case OpF64Neg:
			s[sp-1] ^= 1 << 63
		case OpF64Ceil:
			s[sp-1] = EncodeF64(math.Ceil(DecodeF64(s[sp-1])))
		case OpF64Floor:
			s[sp-1] = EncodeF64(math.Floor(DecodeF64(s[sp-1])))
		case OpF64Trunc:
			s[sp-1] = EncodeF64(math.Trunc(DecodeF64(s[sp-1])))
		case OpF64Nearest:
			s[sp-1] = EncodeF64(math.RoundToEven(DecodeF64(s[sp-1])))
		case OpF64Sqrt:
			s[sp-1] = EncodeF64(math.Sqrt(DecodeF64(s[sp-1])))
		case OpF64Add:
			sp--
			s[sp-1] = EncodeF64(DecodeF64(s[sp-1]) + DecodeF64(s[sp]))
		case OpF64Sub:
			sp--
			s[sp-1] = EncodeF64(DecodeF64(s[sp-1]) - DecodeF64(s[sp]))
		case OpF64Mul:
			sp--
			s[sp-1] = EncodeF64(DecodeF64(s[sp-1]) * DecodeF64(s[sp]))
		case OpF64Div:
			sp--
			s[sp-1] = EncodeF64(DecodeF64(s[sp-1]) / DecodeF64(s[sp]))
		case OpF64Min:
			sp--
			s[sp-1] = EncodeF64(wasmMin(DecodeF64(s[sp-1]), DecodeF64(s[sp])))
		case OpF64Max:
			sp--
			s[sp-1] = EncodeF64(wasmMax(DecodeF64(s[sp-1]), DecodeF64(s[sp])))
		case OpF64Copysign:
			sp--
			s[sp-1] = EncodeF64(math.Copysign(DecodeF64(s[sp-1]), DecodeF64(s[sp])))

		// --- f32 ---
		case OpF32Eq:
			sp--
			s[sp-1] = b2u(DecodeF32(s[sp-1]) == DecodeF32(s[sp]))
		case OpF32Ne:
			sp--
			s[sp-1] = b2u(DecodeF32(s[sp-1]) != DecodeF32(s[sp]))
		case OpF32Lt:
			sp--
			s[sp-1] = b2u(DecodeF32(s[sp-1]) < DecodeF32(s[sp]))
		case OpF32Gt:
			sp--
			s[sp-1] = b2u(DecodeF32(s[sp-1]) > DecodeF32(s[sp]))
		case OpF32Le:
			sp--
			s[sp-1] = b2u(DecodeF32(s[sp-1]) <= DecodeF32(s[sp]))
		case OpF32Ge:
			sp--
			s[sp-1] = b2u(DecodeF32(s[sp-1]) >= DecodeF32(s[sp]))
		case OpF32Abs:
			s[sp-1] = EncodeF32(float32(math.Abs(float64(DecodeF32(s[sp-1])))))
		case OpF32Neg:
			s[sp-1] = uint64(uint32(s[sp-1]) ^ (1 << 31))
		case OpF32Sqrt:
			s[sp-1] = EncodeF32(float32(math.Sqrt(float64(DecodeF32(s[sp-1])))))
		case OpF32Add:
			sp--
			s[sp-1] = EncodeF32(DecodeF32(s[sp-1]) + DecodeF32(s[sp]))
		case OpF32Sub:
			sp--
			s[sp-1] = EncodeF32(DecodeF32(s[sp-1]) - DecodeF32(s[sp]))
		case OpF32Mul:
			sp--
			s[sp-1] = EncodeF32(DecodeF32(s[sp-1]) * DecodeF32(s[sp]))
		case OpF32Div:
			sp--
			s[sp-1] = EncodeF32(DecodeF32(s[sp-1]) / DecodeF32(s[sp]))
		case OpF32Min:
			sp--
			s[sp-1] = EncodeF32(float32(wasmMin(float64(DecodeF32(s[sp-1])), float64(DecodeF32(s[sp])))))
		case OpF32Max:
			sp--
			s[sp-1] = EncodeF32(float32(wasmMax(float64(DecodeF32(s[sp-1])), float64(DecodeF32(s[sp])))))

		// --- conversions ---
		case OpI32WrapI64, OpI64ExtendI32U, OpI32ReinterpretF32, OpF32ReinterpretI32:
			s[sp-1] = uint64(uint32(s[sp-1]))
		case OpI64ExtendI32S:
			s[sp-1] = uint64(int64(int32(s[sp-1])))
		case OpI32TruncF64S:
			f := DecodeF64(s[sp-1])
			if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
				return trap(TrapInvalidConversion, fidx)
			}
			s[sp-1] = uint64(uint32(int32(f)))
		case OpI32TruncF64U:
			f := DecodeF64(s[sp-1])
			if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
				return trap(TrapInvalidConversion, fidx)
			}
			s[sp-1] = uint64(uint32(f))
		case OpI64TruncF64S:
			f := DecodeF64(s[sp-1])
			if math.IsNaN(f) || f >= 9.223372036854776e18 || f < -9.223372036854776e18 {
				return trap(TrapInvalidConversion, fidx)
			}
			s[sp-1] = uint64(int64(f))
		case OpI64TruncF64U:
			f := DecodeF64(s[sp-1])
			if math.IsNaN(f) || f >= 1.8446744073709552e19 || f <= -1 {
				return trap(TrapInvalidConversion, fidx)
			}
			s[sp-1] = uint64(f)
		case OpI32TruncF32S:
			f := float64(DecodeF32(s[sp-1]))
			if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
				return trap(TrapInvalidConversion, fidx)
			}
			s[sp-1] = uint64(uint32(int32(f)))
		case OpI32TruncF32U:
			f := float64(DecodeF32(s[sp-1]))
			if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
				return trap(TrapInvalidConversion, fidx)
			}
			s[sp-1] = uint64(uint32(f))
		case OpF64ConvertI32S:
			s[sp-1] = EncodeF64(float64(int32(s[sp-1])))
		case OpF64ConvertI32U:
			s[sp-1] = EncodeF64(float64(uint32(s[sp-1])))
		case OpF64ConvertI64S:
			s[sp-1] = EncodeF64(float64(int64(s[sp-1])))
		case OpF64ConvertI64U:
			s[sp-1] = EncodeF64(float64(s[sp-1]))
		case OpF32ConvertI32S:
			s[sp-1] = EncodeF32(float32(int32(s[sp-1])))
		case OpF32ConvertI64S:
			s[sp-1] = EncodeF32(float32(int64(s[sp-1])))
		case OpF64PromoteF32:
			s[sp-1] = EncodeF64(float64(DecodeF32(s[sp-1])))
		case OpF32DemoteF64:
			s[sp-1] = EncodeF32(float32(DecodeF64(s[sp-1])))
		case OpI64ReinterpretF64, OpF64ReinterpretI64:
			// Raw encoding is already the reinterpretation.

		default:
			return fmt.Errorf("wavm: unimplemented opcode %s", in.op)
		}
	}
}

// Raw value encoding helpers, shared with host-interface thunks.

// EncodeI32 encodes an int32 as a raw VM value.
func EncodeI32(v int32) uint64 { return uint64(uint32(v)) }

// DecodeI32 decodes a raw VM value as int32.
func DecodeI32(v uint64) int32 { return int32(uint32(v)) }

// EncodeF64 encodes a float64 as a raw VM value.
func EncodeF64(v float64) uint64 { return math.Float64bits(v) }

// DecodeF64 decodes a raw VM value as float64.
func DecodeF64(v uint64) float64 { return math.Float64frombits(v) }

// EncodeF32 encodes a float32 as a raw VM value.
func EncodeF32(v float32) uint64 { return uint64(math.Float32bits(v)) }

// DecodeF32 decodes a raw VM value as float32.
func DecodeF32(v uint64) float32 { return math.Float32frombits(uint32(v)) }

// wasmMin implements the wasm min semantics: NaN-propagating, -0 < +0.
func wasmMin(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == b {
		if math.Signbit(a) {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// wasmMax implements the wasm max semantics: NaN-propagating, +0 > -0.
func wasmMax(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == b {
		if !math.Signbit(a) {
			return a
		}
		return b
	}
	if a > b {
		return a
	}
	return b
}
