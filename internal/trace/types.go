// Package trace is the synthetic measurement substrate standing in for
// the paper's Mininova/PlanetLab datasets (§2), which are no longer
// obtainable (Mininova is defunct; PlanetLab is retired). It generates
// swarm populations with the same observable structure the paper's
// monitoring agents recorded:
//
//   - a seven-month availability study: per-swarm publisher (seed)
//     sessions over a monitoring horizon (Figure 1's input);
//   - a single-day snapshot of ~10⁶ swarms with categories, file
//     listings, seed/leecher counts and download counters (§2.3's
//     input);
//   - peer arrival patterns for young (flash-crowd) and old (steady)
//     swarms (Figure 7's input).
//
// The generator parameters are calibrated so the paper's headline
// statistics are reproduced; internal/measure recomputes those
// statistics from the generated data exactly as the paper's analysis
// scripts would.
package trace

import (
	"fmt"
	"strings"

	"swarmavail/internal/dist"
)

// Category is a content category as used by Mininova's taxonomy.
type Category int

// Categories analysed in §2.3 plus the aggregate rest.
const (
	Music Category = iota
	TV
	Books
	Movies
	Other
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Music:
		return "music"
	case TV:
		return "tv"
	case Books:
		return "books"
	case Movies:
		return "movies"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// FileMeta is one file inside a swarm's content listing.
type FileMeta struct {
	Name   string  `json:"name"`
	SizeKB float64 `json:"size_kb"`
}

// Ext returns the lower-cased file extension including the dot ("" when
// absent).
func (f FileMeta) Ext() string {
	i := strings.LastIndexByte(f.Name, '.')
	if i < 0 {
		return ""
	}
	return strings.ToLower(f.Name[i:])
}

// SwarmMeta describes one swarm's static metadata.
type SwarmMeta struct {
	ID       int        `json:"id"`
	Category Category   `json:"category"`
	Title    string     `json:"title"`
	Files    []FileMeta `json:"files"`
	// CreatedDay is the swarm's creation time in days since the start of
	// the measurement.
	CreatedDay float64 `json:"created_day"`
	// GroupID ties swarms that carry the same underlying franchise (for
	// TV: the show). Zero means ungrouped. It powers the §2.3.2
	// case-study analysis ("the popular TV show Friends had 52 swarms…").
	GroupID int `json:"group_id,omitempty"`
}

// TotalSizeKB returns the content size.
func (m SwarmMeta) TotalSizeKB() float64 {
	var s float64
	for _, f := range m.Files {
		s += f.SizeKB
	}
	return s
}

// SwarmTrace is the availability-study record for one swarm: the
// intervals (in days, relative to swarm creation) during which at least
// one seed was online, over the monitored horizon.
type SwarmTrace struct {
	Meta SwarmMeta `json:"meta"`
	// SeedSessions are merged seed-online intervals in days since
	// creation.
	SeedSessions []dist.Interval `json:"seed_sessions"`
	// MonitoredDays is the monitoring horizon for this swarm.
	MonitoredDays float64 `json:"monitored_days"`
}

// AvailabilityOver returns the fraction of [0, days) with a seed online.
func (t SwarmTrace) AvailabilityOver(days float64) float64 {
	if days > t.MonitoredDays {
		days = t.MonitoredDays
	}
	return dist.AvailableFraction(t.SeedSessions, days)
}

// Snapshot is one swarm's state in the single-day dataset (§2.3):
// instantaneous seed/leecher counts plus the cumulative download
// counter.
type Snapshot struct {
	Meta      SwarmMeta `json:"meta"`
	Seeds     int       `json:"seeds"`
	Leechers  int       `json:"leechers"`
	Downloads int       `json:"downloads"`
}
