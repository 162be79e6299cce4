package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"saber/internal/workload"
)

// Every workload streams the paper's synthetic tuple (workload.SynSchema:
// an int64 timestamp and six 32-bit attributes, 32 bytes).
const (
	tupleSize = workload.SynTupleSize
	// poolTuples is the size of the seeded payload the generator cycles
	// through: tuple i carries the attributes of pool tuple i mod
	// poolTuples and the logical timestamp i / ticks. A 2 MiB pool keeps
	// each send a cached copy plus a timestamp write.
	poolTuples = 1 << 16
	// frameTuples is the number of tuples per ingest frame (32 KiB).
	frameTuples = 1024
	// taskSize is ϕ, fixed for every workload and recorded in the output.
	taskSize = 256 << 10
	// gpuModelScale shrinks the simulated GPGPU's cost model so far that
	// no pipeline stage pads: the device runs at native Go speed.
	gpuModelScale = 1e-6
)

// spec describes one benchmark workload. The open-loop rates are fixed
// constants chosen once from a 2-core host's closed-loop capacity (low
// about a fifth of it, mid about half); they are never derived from a
// measurement at run time.
type spec struct {
	name string
	// ticks is the number of consecutive tuples sharing one logical
	// timestamp: tuple i carries timestamp i / ticks.
	ticks int64
	// groups bounds a2, the GROUP BY key, to [0, groups).
	groups int32
	// low and mid are the open-loop rates in tuples per second.
	low, mid float64
	// sat sizes the closed-loop phases' fixed tuple count: the workload's
	// nominal closed-loop capacity (tuples per second) times the phase
	// length.
	sat float64
	// streams lists the queries the workload runs.
	streams []streamSpec
	// script, when set, boots the workload through the BQL catalog; the
	// TCP source in it is the generator's target.
	script string
}

type streamSpec struct {
	name  string
	query string // CQL over the Syn stream
	mode  compareMode
}

var specs = []*spec{
	{
		// Cheap per-tuple operator work: ingest decode, Insert (admission,
		// ring put, shred, task cut), the queue hand-off and result
		// emission carry most of the cost.
		name: "filter-ingest", ticks: 1, groups: 1 << 10,
		low: 6e6, mid: 12e6, sat: 36e6,
		streams: []streamSpec{{name: "sel", query: `select * from Syn [rows 1024] where a3 < 512`}},
	},
	{
		// Same transport, but hash aggregation, window fragments and the
		// assembly of 4-way-overlapping windows dominate.
		name: "groupagg-slide", ticks: 1, groups: 128,
		low: 2e6, mid: 4e6, sat: 15e6,
		streams: []streamSpec{{name: "grp", query: `select timestamp, a2, sum(a1) as s, count(*) as n, avg(a1) as m from Syn [rows 4096 slide 1024] group by a2`, mode: multiset}},
	},
	{
		// One TCP source fanned out to three streams on CPU workers plus
		// the simulated GPGPU under HLS, booted from a BQL script.
		name: "hybrid-catalog", ticks: 16, groups: 64,
		low: 1.2e6, mid: 2.5e6, sat: 10e6,
		streams: []streamSpec{
			{name: "sel", query: `select * from Syn [rows 1024] where a3 < 512`},
			{name: "load", query: `select count(*) as n, sum(a1) as total from Syn [rows 4096 slide 1024]`, mode: tolerant},
			{name: "grp", query: `select timestamp, a2, count(*) as n, avg(a1) as m from Syn [range 1024 slide 256] group by a2`, mode: tolerant},
		},
		script: "hybrid",
	},
}

func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bqlScript renders the catalog script for a script-booted workload.
func (s *spec) bqlScript() string {
	txt := "CREATE SOURCE Syn TYPE tcp WITH (schema = 'syn', addr = '127.0.0.1:0');\n"
	for _, st := range s.streams {
		txt += fmt.Sprintf("CREATE STREAM %s AS %s;\n", st.name, st.query)
	}
	return txt
}

// payloadPool generates the seeded attribute pool. Timestamps are left
// zero; fillTuples writes them.
func payloadPool(s *spec, seed int64) []byte {
	g := workload.NewSynGen(seed)
	g.Groups = s.groups
	return g.Next(make([]byte, 0, poolTuples*tupleSize), poolTuples)
}

// fillTuples writes tuples [first, first+n) of the stream into dst.
func fillTuples(dst, pool []byte, first int64, n int, ticks int64) []byte {
	dst = dst[:0]
	for i := first; i < first+int64(n); {
		p := int(i % poolTuples)
		run := poolTuples - p
		if rem := int(first + int64(n) - i); rem < run {
			run = rem
		}
		base := len(dst)
		dst = append(dst, pool[p*tupleSize:(p+run)*tupleSize]...)
		for j := 0; j < run; j++ {
			binary.LittleEndian.PutUint64(dst[base+j*tupleSize:], uint64((i+int64(j))/ticks))
		}
		i += int64(run)
	}
	return dst
}

// schedule is an open-loop send schedule: tuple i is due at
// epoch + i/rate, and its logical timestamp is i / ticks.
type schedule struct {
	epochNs int64
	rate    float64 // tuples per second
	ticks   int64
}

// due returns the wall time (unix ns) tuple i is due.
func (s schedule) due(i int64) int64 {
	return s.epochNs + int64(math.Round(float64(i)*1e9/s.rate))
}

// lastIndex returns the index of the last tuple carrying timestamp ts.
// A result's timestamp is its newest input's (selections keep their
// own, aggregates stamp MaxTS), so the due time of this tuple is when
// the result could first have been computed.
func (s schedule) lastIndex(ts int64) int64 { return (ts+1)*s.ticks - 1 }

// resultDue returns the due time of the last input tuple that carries
// the result timestamp ts.
func (s schedule) resultDue(ts int64) int64 { return s.due(s.lastIndex(ts)) }

// frameDue returns when frame k of frameTuples tuples may be sent: once
// its last tuple is due.
func (s schedule) frameDue(k int64, total int64) int64 {
	last := (k+1)*frameTuples - 1
	if last >= total {
		last = total - 1
	}
	return s.due(last)
}
