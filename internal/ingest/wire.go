package ingest

import (
	"fmt"
	"sort"

	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
)

// SummaryState is the mergeable wire form of a Summary: its counters
// (the same summaryCounters value, so none can be left behind) plus the
// availability sketches and per-category bundling counters that
// Summary hides from its (human-facing) JSON. It is what a cluster node
// serves on GET /v1/state and what the gateway's scatter-gather read
// path decodes, merges (Summary.Merge → QuantileSketch.Merge and
// integer sums) and re-renders. The round trip is exact: a merged
// decoded state equals the merge of the live summaries, which is what
// makes a gateway-served /v1/summary byte-identical to a single node
// that saw the whole stream.
type SummaryState struct {
	summaryCounters
	FirstMonth *stats.QuantileSketch `json:"first_month"`
	Full       *stats.QuantileSketch `json:"full"`
	Categories []categoryRecord      `json:"categories,omitempty"`
}

// State converts the summary to its wire form. Categories are sorted so
// the encoding is deterministic.
func (s *Summary) State() *SummaryState {
	st := &SummaryState{summaryCounters: s.summaryCounters, FirstMonth: s.FirstMonth, Full: s.Full}
	cats := make([]trace.Category, 0, len(s.Categories))
	for cat := range s.Categories {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, cat := range cats {
		st.Categories = append(st.Categories, categoryRecord{cat, s.Categories[cat]})
	}
	return st
}

// Summary converts the wire form back to a live, mergeable summary. A
// state with missing sketches (foreign or truncated input) is rejected
// rather than half-built.
func (st *SummaryState) Summary() (*Summary, error) {
	if st.FirstMonth == nil || st.Full == nil {
		return nil, fmt.Errorf("ingest: summary state is missing availability sketches")
	}
	s := &Summary{
		summaryCounters: st.summaryCounters,
		FirstMonth:      st.FirstMonth,
		Full:            st.Full,
		Categories:      make(map[trace.Category]CategoryCounters, len(st.Categories)),
	}
	for _, cr := range st.Categories {
		merged := s.Categories[cr.Category]
		merged.merge(cr.CategoryCounters)
		s.Categories[cr.Category] = merged
	}
	return s, nil
}
