package exec

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
	"saber/internal/workload"
)

// Operator microbenchmarks comparing the vectorized batch kernels
// (Plan.Process) against the per-tuple scalar oracle. Each sub-benchmark
// processes one batch per iteration; b.SetBytes makes `go test -bench`
// report MB/s, and tuples/s = bytes/s ÷ 32.

const benchTuples = 4096

// opModes are the two CPU implementations of the batch operator
// function: the scalar oracle first, then Plan.Process.
var opModes = []struct {
	name    string
	process func(p *Plan, in [2]Batch, res *TaskResult) error
}{{"scalar", scalarProcess}, {"vectorized", (*Plan).Process}}

func benchProcess(b *testing.B, q *query.Query, streams [2][]byte) {
	b.Helper()
	for _, mode := range opModes {
		b.Run(mode.name, func(b *testing.B) {
			p, err := Compile(q)
			if err != nil {
				b.Fatal(err)
			}
			var in [2]Batch
			total := 0
			for i := 0; i < p.NumInputs(); i++ {
				in[i] = Batch{Data: streams[i], Ctx: window.Context{PrevTimestamp: window.NoPrev}}
				total += len(streams[i])
			}
			res := p.NewResult()
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res.Reset()
				if err := mode.process(p, in, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOpSelection(b *testing.B) {
	q := query.NewBuilder("sel").
		From("S", synSchema, window.NewCount(1024, 1024)).
		Where(expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(6)},
			expr.Cmp{Op: expr.Ge, Left: expr.Col("a"), Right: expr.FloatConst(10)},
		}}).
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 1), nil})
}

func BenchmarkOpProjection(b *testing.B) {
	q := query.NewBuilder("proj").
		From("S", synSchema, window.NewCount(1024, 1024)).
		Select("timestamp", "b", "c").
		SelectAs(expr.Arith{Op: expr.Mul, Left: expr.Col("a"), Right: expr.FloatConst(3)}, "a3").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 2), nil})
}

func BenchmarkOpAggScalarPrefix(b *testing.B) {
	q := query.NewBuilder("agg").
		From("S", synSchema, window.NewCount(512, 64)).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		Aggregate(query.Avg, expr.Col("c"), "m").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 3), nil})
}

func BenchmarkOpAggScalarDirect(b *testing.B) {
	q := query.NewBuilder("mm").
		From("S", synSchema, window.NewCount(512, 64)).
		Aggregate(query.Min, expr.Col("a"), "lo").
		Aggregate(query.Max, expr.Col("a"), "hi").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 4), nil})
}

func BenchmarkOpAggGroupedRolling(b *testing.B) {
	q := query.NewBuilder("grp").
		From("S", synSchema, window.NewCount(512, 64)).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		GroupBy("b").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 5), nil})
}

func BenchmarkOpJoinEqui(b *testing.B) {
	w := window.NewCount(256, 256)
	q := query.NewBuilder("jeq").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	l, r := genPair(1024, 64)
	benchProcess(b, q, [2][]byte{l, r})
}

func BenchmarkOpJoinTheta(b *testing.B) {
	w := window.NewCount(128, 128)
	q := query.NewBuilder("jth").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Lt, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	l, r := genPair(1024, 256)
	benchProcess(b, q, [2][]byte{l, r})
}

// opTrials is the best-of count per measurement. On a loaded or
// single-core host a noisy neighbour can depress several consecutive
// trials at once, so the count errs high: 14 windows per side span about
// the wall time over which the operators bench experiment takes its
// vectorized best-of (7 bare windows alternating with 7 metrics-on
// ones), and on a noisy 2-core host they halved this test's failure
// rate against 7.
const opTrials = 14

// measureOp processes one pinned row batch repeatedly through process
// and returns input tuples per second: the best over opTrials windows
// of at least 8 ms (and two batches) of each window's average rate.
// Scheduler contention only ever slows a window down, so the fastest
// window is the robust estimate of the code's actual rate; a window
// average keeps the allocation and GC sweep costs of the measured path
// in the rate.
func measureOp(t *testing.T, q *query.Query, stream []byte, process func(*Plan, [2]Batch, *TaskResult) error) float64 {
	t.Helper()
	p, err := Compile(q)
	if err != nil {
		t.Fatalf("compile %s: %v", q.Name, err)
	}
	in := [2]Batch{{Data: stream, Ctx: window.Context{PrevTimestamp: window.NoPrev}}}
	iter := func() {
		res := p.NewResult()
		if err := process(p, in, res); err != nil {
			t.Fatal(err)
		}
		p.ReleaseResult(res)
	}
	iter() // warm the pools and the branch predictor
	// Start each measurement with a fully swept heap: earlier tests in
	// the same process can leave garbage whose lazy sweep debt is paid by
	// the measurement loop's allocations, taxing the allocation-heavier
	// vectorized path disproportionately (observed as a ~15% speedup-ratio
	// depression on single-core hosts).
	debug.FreeOSMemory()
	tuples := float64(len(stream) / q.Inputs[0].Schema.TupleSize())
	const minWall = 8 * time.Millisecond
	best := 0.0
	for trial := 0; trial < opTrials; trial++ {
		n := 0
		start := time.Now()
		var elapsed time.Duration
		for {
			iter()
			n++
			if elapsed = time.Since(start); elapsed >= minWall && n >= 2 {
				break
			}
		}
		if r := tuples * float64(n) / elapsed.Seconds(); r > best {
			best = r
		}
	}
	return best
}

// measureSpeedup returns the ratio of Plan.Process's input tuples/s to
// the scalar oracle's, each measured in its own block by measureOp.
func measureSpeedup(t *testing.T, q *query.Query, stream []byte) float64 {
	t.Helper()
	scalar := measureOp(t, q, stream, scalarProcess)
	vec := measureOp(t, q, stream, (*Plan).Process)
	return vec / scalar
}

// TestVectorizedSpeedupFloor is the acceptance floor of the batch
// kernels: they must at least double tuples/s over the scalar oracle on
// the selection, projection and non-grouped aggregation paths, over one
// 4096-tuple batch of the paper's synthetic stream at native speed. The
// floors sit within a few percent of the nominal ratios on small hosts,
// so one re-measurement is allowed before failing: a noisy neighbour
// clears on the retry, a genuine kernel regression does not.
func TestVectorizedSpeedupFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("speed ratios are not meaningful under -race")
	}
	gen := workload.NewSynGen(42)
	gen.Groups = 64
	syn := gen.Next(nil, benchTuples)
	cases := []struct {
		name string
		q    *query.Query
	}{
		{"selection", workload.Select(2, window.NewCount(1024, 1024))},
		{"projection", workload.Proj(3, 1, window.NewCount(1024, 1024))},
		{"agg-scalar-prefix", workload.Agg(query.Sum, window.NewCount(512, 64))},
		{"agg-scalar-direct", workload.Agg(query.Max, window.NewCount(512, 64))},
	}
	violations := func() []string {
		var bad []string
		for _, c := range cases {
			sp := measureSpeedup(t, c.q, syn)
			t.Logf("%s: %.2fx", c.name, sp)
			if sp < 2 {
				bad = append(bad, fmt.Sprintf("%s: speedup %.2f < 2x", c.name, sp))
			}
		}
		return bad
	}
	bad := violations()
	if len(bad) > 0 {
		t.Logf("speedup floors missed (%v), re-measuring once", bad)
		bad = violations()
	}
	for _, m := range bad {
		t.Error(m)
	}
}
