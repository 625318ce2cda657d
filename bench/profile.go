package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"path"
	"slices"
	"sort"
	"time"
)

// Workload profiles are data: one JSON file per workload, named groups
// (writers, queriers) each with their own rate or think time, transport
// and skew, so changing a load shape is an edit to a profile and never
// to the harness.
//
//go:embed profiles/*.json
var profileFS embed.FS

// Profile is one workload: the stack to stand up, the state to preload,
// the load groups, and the crash schedule that follows the windows.
type Profile struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Swarms is the preloaded study size and the tail's id space.
	Swarms int       `json:"swarms"`
	Stack  StackSpec `json:"stack"`
	Groups struct {
		Writers  WriterGroup  `json:"writers"`
		Queriers QuerierGroup `json:"queriers"`
	} `json:"groups"`
	Crash CrashSpec `json:"crash"`
}

// StackSpec is the system under test: availd nodes, optionally behind
// an availgw.
type StackSpec struct {
	Gateway         bool   `json:"gateway"`
	Nodes           int    `json:"nodes"`
	Fsync           string `json:"fsync"`
	CheckpointEvery string `json:"checkpoint_every"`
}

// WriterGroup is the one writer connection and the live tail it sends.
type WriterGroup struct {
	Transport     string  `json:"transport"` // "bin" (StreamClient) or "json" (HTTPClient.Push)
	FrameRecords  int     `json:"frame_records"`
	AckWindow     int     `json:"ack_window"`
	PeersPerSwarm int     `json:"peers_per_swarm"`
	SeedShare     float64 `json:"seed_share"`
	Skew          Skew    `json:"skew"`
	// Windows run back to back; each takes Share of the run's -seconds.
	Windows []WindowSpec `json:"windows"`
}

// Skew picks which swarm a tail record lands on.
type Skew struct {
	Kind string  `json:"kind"` // "zipf" or "uniform"
	S    float64 `json:"s,omitempty"`
}

// WindowSpec is one measured window. RatePerS > 0 is an open loop at
// that many records per second; 0 is a closed loop bounded by the
// writer's ack window. Queriers says whether the reader runs beside the
// writer: the first window's always does (it gives the freshness and
// query metrics); a second, closed-loop window without it gives the
// write path's own ceiling.
type WindowSpec struct {
	Name     string  `json:"name"`
	Share    float64 `json:"share"`
	RatePerS int     `json:"rate_per_s"`
	Queriers bool    `json:"queriers"`
}

// QuerierGroup is the one reader connection: closed loop with think
// time, cycling through Mix.
type QuerierGroup struct {
	ThinkMS int      `json:"think_ms"`
	Mix     []string `json:"mix"`
}

// CrashSpec follows the windows: for each of Signals ("term" or "kill")
// a tail of TailRecords, the signal to every process, and a restart.
// SIGTERMs give checkpoint_s, restarts after a SIGKILL give recovery_s.
type CrashSpec struct {
	Signals     []string `json:"signals"`
	TailRecords int      `json:"tail_records"`
}

// queryEndpoints are the reader's endpoint kinds, in the order their
// per-endpoint metrics are reported.
var queryEndpoints = []string{"summary", "cdf", "window", "swarm"}

func (p *Profile) validate() error {
	w, q := p.Groups.Writers, p.Groups.Queriers
	switch {
	case p.Name == "" || p.Why == "":
		return fmt.Errorf("needs a name and a why")
	case p.Swarms < 2:
		return fmt.Errorf("swarms %d < 2", p.Swarms)
	case p.Stack.Nodes < 1 || (!p.Stack.Gateway && p.Stack.Nodes != 1):
		return fmt.Errorf("stack needs one node, or a gateway over several")
	case w.Transport != "bin" && w.Transport != "json":
		return fmt.Errorf("unknown transport %q", w.Transport)
	case w.FrameRecords < 1 || w.AckWindow < 1 || w.PeersPerSwarm < 1:
		return fmt.Errorf("frame_records, ack_window and peers_per_swarm must be positive")
	case w.SeedShare < 0 || w.SeedShare > 1:
		return fmt.Errorf("seed_share %v outside [0,1]", w.SeedShare)
	case w.Skew.Kind != "uniform" && !(w.Skew.Kind == "zipf" && w.Skew.S > 1):
		return fmt.Errorf("skew must be uniform, or zipf with s > 1")
	case len(w.Windows) == 0 || w.Windows[len(w.Windows)-1].RatePerS != 0:
		return fmt.Errorf("the last window must be a closed loop (it gives ingest_records_per_s)")
	case !w.Windows[0].Queriers:
		return fmt.Errorf("the first window needs the queriers (it gives the freshness and query metrics)")
	case q.ThinkMS < 0 || len(q.Mix) == 0:
		return fmt.Errorf("queriers need a think time and a mix")
	case !slices.Contains(p.Crash.Signals, "term") || !slices.Contains(p.Crash.Signals, "kill") || p.Crash.TailRecords < 1:
		return fmt.Errorf("crash needs a term signal (it gives checkpoint_s), a kill signal (recovery_s) and a tail")
	}
	for _, sig := range p.Crash.Signals {
		if sig != "term" && sig != "kill" {
			return fmt.Errorf("unknown crash signal %q", sig)
		}
	}
	if _, err := time.ParseDuration(durationArg(p.Stack.CheckpointEvery)); err != nil {
		return fmt.Errorf("checkpoint_every: %v", err)
	}
	var share float64
	for _, win := range w.Windows {
		if win.Share <= 0 || win.RatePerS < 0 {
			return fmt.Errorf("window %q needs a positive share and a rate ≥ 0", win.Name)
		}
		share += win.Share
	}
	if share < 0.999 || share > 1.001 {
		return fmt.Errorf("window shares sum to %v, want 1", share)
	}
	for _, ep := range q.Mix {
		if !slices.Contains(queryEndpoints, ep) {
			return fmt.Errorf("unknown query endpoint %q", ep)
		}
	}
	return nil
}

// durationArg lets a profile write "0" for a zero duration flag.
func durationArg(s string) string {
	if s == "0" {
		return "0s"
	}
	return s
}

// loadProfiles reads every embedded profile, keyed and validated by
// name (the file name must match).
func loadProfiles() (map[string]*Profile, error) {
	entries, err := profileFS.ReadDir("profiles")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Profile, len(entries))
	for _, ent := range entries {
		raw, err := profileFS.ReadFile(path.Join("profiles", ent.Name()))
		if err != nil {
			return nil, err
		}
		var p Profile
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("profile %s: %w", ent.Name(), err)
		}
		if p.Name+".json" != ent.Name() {
			return nil, fmt.Errorf("profile %s names itself %q", ent.Name(), p.Name)
		}
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Name, err)
		}
		out[p.Name] = &p
	}
	return out, nil
}

func profileNames(ps map[string]*Profile) []string {
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
