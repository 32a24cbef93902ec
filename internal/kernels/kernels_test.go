package kernels

import (
	"errors"
	"math"
	"testing"

	"faasm.dev/faasm/internal/wavm"
)

func instantiate(mod *wavm.Module) (*wavm.Instance, error) {
	return wavm.Instantiate(mod, nil)
}

// TestSandboxMatchesNative is the correctness gate for Fig 9a: every kernel
// computes the same checksum in the wavm sandbox and natively.
func TestSandboxMatchesNative(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want := k.Native(k.N)
			got, steps, err := RunWavm(k)
			if err != nil {
				t.Fatal(err)
			}
			if steps == 0 {
				t.Fatal("no interpreter steps recorded")
			}
			diff := math.Abs(got - want)
			scale := math.Max(math.Abs(want), 1)
			if diff/scale > 1e-9 {
				t.Fatalf("checksum mismatch: sandbox %v, native %v", got, want)
			}
		})
	}
}

func TestKernelNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range All() {
		if seen[k.Name] {
			t.Fatalf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
	}
	if len(seen) < 10 {
		t.Fatalf("suite has only %d kernels", len(seen))
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("2mm"); !ok {
		t.Fatal("2mm missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("found nonexistent kernel")
	}
}

func TestChecksumsNonTrivial(t *testing.T) {
	for _, k := range All() {
		v := k.Native(k.N)
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s checksum degenerate: %v", k.Name, v)
		}
	}
}

func BenchmarkNative2mm(b *testing.B) {
	k, _ := ByName("2mm")
	for i := 0; i < b.N; i++ {
		k.Native(k.N)
	}
}

func BenchmarkWavm2mm(b *testing.B) {
	k, _ := ByName("2mm")
	mod, err := CompileKernel(k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := instantiate(mod)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inst.Call("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// pinnedSteps is each kernel's Instance.Steps for one call of main,
// recorded with the per-instruction interpreter that preceded lowering.
// Per-block charging must reproduce them exactly: the cgroup layer bills
// from Steps and the benchmark reports it as wavm.steps.
var pinnedSteps = map[string]uint64{
	"2mm":            8441822,
	"3mm":            7362868,
	"atax":           6715766,
	"bicg":           6588294,
	"cholesky":       1915539,
	"covariance":     2394538,
	"durbin":         3069596,
	"floyd-warshall": 5607668,
	"jacobi-1d":      3705873,
	"jacobi-2d":      3661273,
	"lu":             2454169,
	"mvt":            3808682,
	"seidel-2d":      4392138,
	"trisolv":        2661978,
}

// TestStepsPinnedAndObjectRoundTrip runs every kernel from its validated
// module and from an EncodeObject → DecodeObject copy: both give the same
// checksum in exactly the pinned number of steps.
func TestStepsPinnedAndObjectRoundTrip(t *testing.T) {
	if len(pinnedSteps) != len(All()) {
		t.Fatalf("%d pinned step counts for %d kernels", len(pinnedSteps), len(All()))
	}
	for _, k := range All() {
		mod, err := CompileKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := wavm.EncodeObject(mod)
		if err != nil {
			t.Fatal(err)
		}
		back, err := wavm.DecodeObject(blob)
		if err != nil {
			t.Fatal(err)
		}
		var sums []uint64
		for _, m := range []*wavm.Module{mod, back} {
			inst, err := instantiate(m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := inst.Call("main")
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if inst.Steps != pinnedSteps[k.Name] {
				t.Errorf("%s: %d steps, pinned %d", k.Name, inst.Steps, pinnedSteps[k.Name])
			}
			sums = append(sums, res[0])
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: round-tripped checksum %v, original %v", k.Name, wavm.DecodeF64(sums[1]), wavm.DecodeF64(sums[0]))
		}
	}
}

// TestFuelBoundsKernel runs a kernel under budgets short of and equal to
// its cost: short budgets trap TrapFuelExhausted within budget, the exact
// budget completes.
func TestFuelBoundsKernel(t *testing.T) {
	k, _ := ByName("trisolv")
	mod, err := CompileKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	cost := int64(pinnedSteps[k.Name])
	for _, n := range []int64{0, 17, cost / 3, cost - 1, cost} {
		inst, err := wavm.Instantiate(mod, nil, wavm.WithFuel(n))
		if err != nil {
			t.Fatal(err)
		}
		_, err = inst.Call("main")
		if inst.Steps > uint64(n) {
			t.Fatalf("fuel %d: %d steps executed", n, inst.Steps)
		}
		if n == cost {
			if err != nil {
				t.Fatalf("exact budget %d: %v", n, err)
			}
			continue
		}
		var tr *wavm.Trap
		if !errors.As(err, &tr) || tr.Kind != wavm.TrapFuelExhausted {
			t.Fatalf("fuel %d: got %v, want fuel exhausted", n, err)
		}
	}
}
