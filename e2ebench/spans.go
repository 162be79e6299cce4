package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call into a layer during the traced run. Trace is
// the ingest frame index the work belongs to (frame k holds tuples
// [k*frameTuples, (k+1)*frameTuples)); the result side recovers it from
// the output timestamp. Probe spans, which run outside the stream, use
// trace -1.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. Not safe for
// concurrent use.
type spanLog struct{ spans []span }

func (l *spanLog) add(name, parent string, trace, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Trace: trace, Start: start, End: end})
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// mergeSpans joins the span files of the generator and the SUT (and any
// probe spans) by trace id into one file ordered by trace, then start.
// It returns how many traces carry spans from both processes.
func mergeSpans(dir string, files []string, extra []span) (int, error) {
	var all []span
	for _, f := range files {
		s, err := readSpans(filepath.Join(dir, f))
		if err != nil {
			return 0, err
		}
		all = append(all, s...)
	}
	all = append(all, extra...)
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Trace != all[j].Trace {
			return all[i].Trace < all[j].Trace
		}
		return all[i].Start < all[j].Start
	})
	joined := 0
	for i := 0; i < len(all); {
		j := i
		var gen, sut bool
		for ; j < len(all) && all[j].Trace == all[i].Trace; j++ {
			switch all[j].Name {
			case "gen.send":
				gen = true
			case "engine.insert":
				sut = true
			}
		}
		if gen && sut {
			joined++
		}
		i = j
	}
	return joined, writeSpans(filepath.Join(dir, "spans.jsonl"), all)
}
