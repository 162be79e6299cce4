package exec

import (
	"fmt"
	"sort"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

var leftSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "v", Type: schema.Int32},
)

var rightSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "w", Type: schema.Int32},
)

func genPair(n int, mod int32) (l, r []byte) {
	lb := schema.NewTupleBuilder(leftSchema, n)
	rb := schema.NewTupleBuilder(rightSchema, n)
	for i := 0; i < n; i++ {
		lb.Begin().Timestamp(int64(i)).Int32("v", int32(i)%mod)
		rb.Begin().Timestamp(int64(i)).Int32("w", int32(i)%mod)
	}
	return lb.Bytes(), rb.Bytes()
}

func joinPlan(t *testing.T, w window.Def, pred expr.Pred) *Plan {
	t.Helper()
	q := query.NewBuilder("join").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(pred).
		MustBuild()
	return mustCompile(t, q)
}

// refJoin computes the per-window equi-join naively: for count window k
// over both streams, all pairs (i, j) with i, j in [start, end) and
// v[i] == w[j].
func refJoin(l, r []byte, w window.Def, n int) []string {
	return refJoinWhere(l, r, w, n, func(i, j int64, v, w int32) bool { return v == w })
}

// refJoinWhere is refJoin for any predicate over the pair's indices (its
// timestamps) and values.
func refJoinWhere(l, r []byte, w window.Def, n int, pred func(i, j int64, v, w int32) bool) []string {
	var rows []string
	lsz, rsz := leftSchema.TupleSize(), rightSchema.TupleSize()
	for k := int64(0); w.Start(k) < int64(n); k++ {
		s, e := w.Start(k), w.End(k)
		if e > int64(n) {
			e = int64(n)
		}
		for i := s; i < e; i++ {
			for j := s; j < e; j++ {
				lv := leftSchema.ReadInt32(l[int(i)*lsz:], 1)
				rv := rightSchema.ReadInt32(r[int(j)*rsz:], 1)
				if pred(i, j, lv, rv) {
					rows = append(rows, fmt.Sprintf("k%d:%d-%d", k, i, j))
				}
			}
		}
	}
	sort.Strings(rows)
	return rows
}

// gotJoin renders join output rows as window-less pair identifiers using
// the timestamps carried through (L.timestamp, R.timestamp identify i, j).
func gotJoin(p *Plan, out []byte, w window.Def) []string {
	s := p.OutputSchema()
	osz := s.TupleSize()
	lts := s.IndexOf("timestamp")
	rts := s.IndexOf("R_timestamp")
	var rows []string
	for o := 0; o+osz <= len(out); o += osz {
		i := s.ReadInt(out[o:], lts)
		j := s.ReadInt(out[o:], rts)
		// Recover the window: both i and j lie in it; for slide==size the
		// window is i/size; for general windows a pair may belong to
		// several, so we tag with the earliest containing window.
		k := maxI64((i-w.Size+w.Slide)/w.Slide, (j-w.Size+w.Slide)/w.Slide)
		if k < 0 {
			k = 0
		}
		rows = append(rows, fmt.Sprintf("k%d:%d-%d", k, i, j))
	}
	sort.Strings(rows)
	return rows
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestJoinTumblingWithinBatch(t *testing.T) {
	w := window.NewCount(8, 8)
	p := joinPlan(t, w, expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(64, 4)
	out := runPlanStreams(t, p, [2][]byte{l, r}, 16) // batches hold whole windows
	got := gotJoin(p, out, w)
	want := refJoin(l, r, w, 64)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s want %s", i, got[i], want[i])
		}
	}
}

// TestJoinWindowSpansBatches: windows larger than the batch require the
// assembly stage to join cross-task pairs. The θ-join takes the per-pair
// predicate path and the residual conjunct the bucketed path's re-test,
// both at batch time and at assembly.
func TestJoinWindowSpansBatches(t *testing.T) {
	w := window.NewCount(16, 16)
	cases := []struct {
		name string
		pred expr.Pred
		ref  func(i, j int64, v, w int32) bool
	}{
		{"equi", expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")},
			func(i, j int64, v, w int32) bool { return v == w }},
		{"theta", expr.Cmp{Op: expr.Lt, Left: expr.Col("v"), Right: expr.Col("w")},
			func(i, j int64, v, w int32) bool { return v < w }},
		{"equi-residual", expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")},
			expr.Cmp{Op: expr.Lt, Left: expr.QCol("L", "timestamp"), Right: expr.QCol("R", "timestamp")},
		}}, func(i, j int64, v, w int32) bool { return v == w && i < j }},
	}
	l, r := genPair(64, 4)
	for _, c := range cases {
		p := joinPlan(t, w, c.pred)
		want := refJoinWhere(l, r, w, 64, c.ref)
		for _, batch := range []int{3, 5, 7} {
			out := runPlanStreams(t, p, [2][]byte{l, r}, batch)
			got := gotJoin(p, out, w)
			if len(got) != len(want) {
				t.Fatalf("%s batch %d: rows = %d, want %d", c.name, batch, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s batch %d row %d: got %s want %s", c.name, batch, i, got[i], want[i])
				}
			}
		}
	}
}

func TestJoinThetaPredicate(t *testing.T) {
	w := window.NewCount(4, 4)
	p := joinPlan(t, w, expr.Cmp{Op: expr.Lt, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(16, 100)
	out := runPlanStreams(t, p, [2][]byte{l, r}, 4)
	s := p.OutputSchema()
	osz := s.TupleSize()
	vIdx, wIdx := s.IndexOf("v"), s.IndexOf("w")
	count := 0
	for o := 0; o+osz <= len(out); o += osz {
		if s.ReadInt32(out[o:], vIdx) >= s.ReadInt32(out[o:], wIdx) {
			t.Fatal("θ predicate violated in output")
		}
		count++
	}
	// Per tumbling window of 4 with distinct values 4k..4k+3: pairs with
	// v<w: C(4,2)=6 per window, 4 windows.
	if count != 24 {
		t.Fatalf("rows = %d, want 24", count)
	}
}

func TestJoinProjectionOutput(t *testing.T) {
	w := window.NewCount(4, 4)
	q := query.NewBuilder("pj").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")}).
		Select("v").
		SelectAs(expr.QCol("R", "timestamp"), "rts").
		MustBuild()
	p := mustCompile(t, q)
	if p.OutputSchema().NumFields() != 2 {
		t.Fatalf("out = %s", p.OutputSchema())
	}
	l, r := genPair(8, 2)
	out := runPlanStreams(t, p, [2][]byte{l, r}, 8)
	if len(out) == 0 || len(out)%p.OutputSchema().TupleSize() != 0 {
		t.Fatalf("output size %d", len(out))
	}
}

func TestJoinTimeWindows(t *testing.T) {
	w := window.NewTime(4, 4)
	p := joinPlan(t, w, expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(32, 4) // timestamps == indices, so time==count here
	out := runPlanStreams(t, p, [2][]byte{l, r}, 5)
	want := refJoin(l, r, window.NewCount(4, 4), 32)
	got := gotJoin(p, out, window.NewCount(4, 4))
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
}

func TestJoinMismatchedWindowKindsRejected(t *testing.T) {
	q := query.NewBuilder("bad").
		FromAs("L", "L", leftSchema, window.NewCount(4, 4)).
		FromAs("R", "R", rightSchema, window.NewTime(4, 4)).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	if _, err := Compile(q); err == nil {
		t.Fatal("mixed window kinds compiled")
	}
}

// TestJoinLaggingInput: one input runs far ahead of the other across
// batches. A window must not close until BOTH inputs have passed it, even
// though the closes happen in different tasks.
func TestJoinLaggingInput(t *testing.T) {
	w := window.NewTime(4, 4)
	p := joinPlan(t, w, expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(32, 4)

	asm := NewAssembler(p)
	var out []byte
	lsz, rsz := leftSchema.TupleSize(), rightSchema.TupleSize()

	// Task 1: all of L, none of R. Task 2: none of L, all of R.
	tasks := [][2]Batch{
		{{Data: l, Ctx: window.Context{FirstIndex: 0, PrevTimestamp: window.NoPrev}}, {Ctx: window.Context{PrevTimestamp: window.NoPrev}}},
		{{Data: nil, Ctx: window.Context{FirstIndex: 32, PrevTimestamp: 31}}, {Data: r, Ctx: window.Context{FirstIndex: 0, PrevTimestamp: window.NoPrev}}},
	}
	for _, in := range tasks {
		res := p.NewResult()
		if err := p.Process(in, res); err != nil {
			t.Fatal(err)
		}
		out = asm.Drain(res, out)
		p.ReleaseResult(res)
	}
	out = asm.Flush(out)

	want := refJoin(l, r, window.NewCount(4, 4), 32) // ts == index
	got := gotJoin(p, out, window.NewCount(4, 4))
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s want %s", i, got[i], want[i])
		}
	}
	_ = lsz
	_ = rsz
}
