// Package experiments contains one driver per table and figure of the
// paper's evaluation, shared by `swarmavail figures` (full-scale
// regeneration) and the repository's benchmark harness (scaled-down
// regeneration with reported metrics). Each driver returns a Result
// carrying the charts, timelines, boxplots, tables and headline notes
// that together reconstitute the published artefact.
package experiments

import (
	"fmt"
	"sort"

	"swarmavail/internal/plot"
)

// Scale selects how much work a driver does.
type Scale int

const (
	// Quick runs a reduced version suitable for unit tests and
	// benchmarks (seconds).
	Quick Scale = iota
	// Full runs the paper-scale version (tens of seconds to minutes).
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Table is a simple textual table.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Result is everything a driver produced.
type Result struct {
	// ID names the paper artefact ("fig1", "fig6a", "table-bm", …).
	ID string
	// Description summarises what the artefact shows.
	Description string
	Charts      []*plot.Chart
	Timelines   []*plot.Timeline
	Boxplots    []*plot.Boxplot
	Tables      []Table
	// Notes carries headline numbers (optima, fractions, factors) that
	// EXPERIMENTS.md records against the paper's values.
	Notes []Note
}

// Headline is a number a driver reports under a stable key: what
// EXPERIMENTS.md records, a benchmark reports as a metric and a test
// asserts on. Passed to Notef as an argument, it is printed under the
// format's float verb and recorded on the note, so the line and the
// value a reader gets by key are one number — nothing parses the line
// back, and a "(paper: N)" beside it cannot be taken for it.
type Headline struct {
	Key   string
	Value float64
}

// Format prints the value as the float64 it is.
func (h Headline) Format(f fmt.State, verb rune) {
	fmt.Fprintf(f, fmt.FormatString(f, verb), h.Value)
}

// Note is one line of a Result's notes: Text, and the Headlines it was
// rendered from (none for plain prose).
type Note struct {
	Text      string
	Headlines []Headline
}

// Notef appends a formatted note, keyed by the Headlines among args.
func (r *Result) Notef(format string, args ...any) {
	n := Note{Text: fmt.Sprintf(format, args...)}
	for _, a := range args {
		if h, ok := a.(Headline); ok {
			n.Headlines = append(n.Headlines, h)
		}
	}
	r.Notes = append(r.Notes, n)
}

// Value returns the headline a driver recorded under key.
func (r *Result) Value(key string) (float64, bool) {
	for _, n := range r.Notes {
		for _, h := range n.Headlines {
			if h.Key == key {
				return h.Value, true
			}
		}
	}
	return 0, false
}

// Driver is a runnable experiment.
type Driver struct {
	ID          string
	Description string
	Run         func(scale Scale, seed int64) (*Result, error)
}

// registry holds all drivers keyed by ID.
var registry = map[string]Driver{}

func register(d Driver) {
	if _, dup := registry[d.ID]; dup {
		panic("experiments: duplicate driver " + d.ID)
	}
	registry[d.ID] = d
}

// Lookup returns the driver for an artefact ID.
func Lookup(id string) (Driver, bool) {
	d, ok := registry[id]
	return d, ok
}

// All returns every registered driver sorted by ID.
func All() []Driver {
	out := make([]Driver, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
