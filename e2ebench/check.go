package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"

	"saber"
	"saber/internal/schema"
	"saber/internal/workload"
)

// refStream is the reference output of one stream.
type refStream struct {
	name string
	mode compareMode
	out  *saber.Schema
	d    digest
	rows []byte // tolerant mode
}

// reference runs the workload's queries on an in-process engine with a
// single CPU worker, fed the exact prefix the generator sent, and
// returns each stream's output digest.
func reference(s *spec, pool []byte, tuples int64) ([]refStream, error) {
	return referenceFrom(s, func(insert func([]byte)) {
		const chunk = 64 * frameTuples
		buf := make([]byte, 0, chunk*tupleSize)
		for i := int64(0); i < tuples; i += chunk {
			n := tuples - i
			if n > chunk {
				n = chunk
			}
			insert(fillTuples(buf, pool, i, int(n), s.ticks))
		}
	})
}

// referenceFrom runs the reference engine over what feed inserts.
func referenceFrom(s *spec, feed func(insert func([]byte))) ([]refStream, error) {
	eng := saber.New(saber.Config{CPUWorkers: 1, TaskSize: taskSize, NativeSpeed: true})
	eng.DeclareStream("Syn", workload.SynSchema)
	refs := make([]refStream, len(s.streams))
	var hs []*saber.QueryHandle
	for i, st := range s.streams {
		h, err := eng.Query(st.name, st.query)
		if err != nil {
			return nil, err
		}
		r := &refs[i]
		r.name, r.mode, r.out = st.name, st.mode, h.OutputSchema()
		osz := r.out.TupleSize()
		h.OnResult(func(rows []byte) {
			r.d.add(rows, osz, r.mode)
			if r.mode == tolerant {
				r.rows = append(r.rows, rows...)
			}
		})
		hs = append(hs, h)
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	feed(func(data []byte) {
		for _, h := range hs {
			h.Insert(data)
		}
	})
	eng.Drain()
	eng.Close()
	return refs, nil
}

// checkStream compares a phase's stream output with the reference. It
// returns nil when they agree.
func checkStream(got streamReport, rows []byte, ref refStream) error {
	if ref.mode != tolerant {
		if got.Digest != ref.d {
			return fmt.Errorf("%s: output %+v, reference %+v", got.Name, got.Digest, ref.d)
		}
		return nil
	}
	if int64(len(rows)) != got.Digest.Bytes {
		return fmt.Errorf("%s: rows file holds %d bytes, stream emitted %d", got.Name, len(rows), got.Digest.Bytes)
	}
	if err := compareRows(ref.out, rows, ref.rows); err != nil {
		return fmt.Errorf("%s: %w", got.Name, err)
	}
	return nil
}

// floatClose is the tolerance the GPGPU differential tests accept: equal
// to three decimals (their %.3f comparison), or within a few float32
// ulps where the magnitude makes three decimals finer than float32.
func floatClose(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 5e-4 || d <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// compareRows checks got against want row by row in sortRows order.
// Integer fields must match exactly, float fields within floatClose.
func compareRows(s *schema.Schema, got, want []byte) error {
	tsz := s.TupleSize()
	if len(got)%tsz != 0 || len(want)%tsz != 0 {
		return fmt.Errorf("ragged output: %d and %d bytes for %d-byte rows", len(got), len(want), tsz)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference %d", len(got)/tsz, len(want)/tsz)
	}
	g, w := splitRows(got, tsz), splitRows(want, tsz)
	sortRows(s, g)
	sortRows(s, w)
	for i := range g {
		for f := 0; f < s.NumFields(); f++ {
			switch s.Field(f).Type {
			case schema.Float32, schema.Float64:
				if a, b := s.ReadFloat(g[i], f), s.ReadFloat(w[i], f); !floatClose(a, b) {
					return fmt.Errorf("row %d field %s: %v, reference %v", i, s.Field(f).Name, a, b)
				}
			default:
				off, n := s.Offset(f), s.Field(f).Type.Size()
				if !bytes.Equal(g[i][off:off+n], w[i][off:off+n]) {
					return fmt.Errorf("row %d field %s differs", i, s.Field(f).Name)
				}
			}
		}
	}
	return nil
}

func splitRows(b []byte, tsz int) [][]byte {
	rows := make([][]byte, len(b)/tsz)
	for i := range rows {
		rows[i] = b[i*tsz : (i+1)*tsz]
	}
	return rows
}

// sortRows orders rows by timestamp, then by their integer fields (the
// group key), keeping arrival order among equal keys. Grouped
// aggregates stamp each group's row with the group's own newest
// timestamp and emit a window's groups in hash-table order, which
// differs between runs; this canonical order does not.
func sortRows(s *schema.Schema, rows [][]byte) {
	type keyed struct{ key, row []byte }
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		k := binary.BigEndian.AppendUint64(nil, uint64(s.Timestamp(r))^1<<63)
		for f := 1; f < s.NumFields(); f++ {
			if t := s.Field(f).Type; t != schema.Float32 && t != schema.Float64 {
				k = append(k, r[s.Offset(f):s.Offset(f)+t.Size()]...)
			}
		}
		ks[i] = keyed{k, r}
	}
	sort.SliceStable(ks, func(a, b int) bool { return bytes.Compare(ks[a].key, ks[b].key) < 0 })
	for i := range ks {
		rows[i] = ks[i].row
	}
}

// ledger is one phase's delivery account against the tuples attempted,
// taken from the stream that lost the most.
type ledger struct {
	Attempted  int64    `json:"attempted"`
	Sent       int64    `json:"sent"`
	Offered    int64    `json:"offered"`
	Delivered  int64    `json:"delivered"`
	Shed       int64    `json:"shed"`
	Mismatches int      `json:"mismatches"`
	Failed     int64    `json:"failed"`
	Problems   []string `json:"problems,omitempty"`
}

// audit settles a phase: every stream must have been offered every tuple
// attempted, offered must equal admitted plus shed before admission,
// every admitted tuple must have been processed rather than shed, and
// every output must match the reference. Any shortfall counts as failed
// tuples; a mismatching output fails the whole phase.
func audit(attempted int64, g *genReport, rep *sutReport, refs []refStream) ledger {
	l := ledger{Attempted: attempted, Sent: g.Tuples}
	if g.SendErr != "" {
		l.Problems = append(l.Problems, "send: "+g.SendErr)
	}
	if rep.DeliveryTimeout {
		l.Problems = append(l.Problems, "offered bytes never covered the bytes sent")
	}
	if len(rep.Streams) != len(refs) {
		l.Problems = append(l.Problems, fmt.Sprintf("%d streams reported, %d expected", len(rep.Streams), len(refs)))
		l.Mismatches++
		l.Failed = attempted
		return l
	}
	l.Failed = -1
	for i, st := range rep.Streams {
		// Tuples processed beyond those attempted are as wrong as missing ones.
		lost := attempted - (st.Delivered - st.ShedGap)
		if lost < 0 {
			lost = -lost
		}
		if gap := st.Offered - st.Delivered - st.ShedAdmit; gap != 0 {
			l.Problems = append(l.Problems, fmt.Sprintf("%s: ledger gap: offered %d != admitted %d + shed %d",
				st.Name, st.Offered, st.Delivered, st.ShedAdmit))
			if gap < 0 {
				gap = -gap
			}
			lost += gap
		}
		if lost > l.Failed {
			l.Failed, l.Offered, l.Delivered, l.Shed = lost, st.Offered, st.Delivered, st.ShedAdmit+st.ShedGap
		}
		var rows []byte
		if st.RowsFile != "" {
			b, err := os.ReadFile(st.RowsFile)
			if err != nil {
				l.Problems = append(l.Problems, err.Error())
				l.Mismatches++
				continue
			}
			rows = b
		}
		if err := checkStream(st, rows, refs[i]); err != nil {
			l.Problems = append(l.Problems, err.Error())
			l.Mismatches++
		}
	}
	if l.Mismatches > 0 {
		l.Failed = attempted
	}
	return l
}
