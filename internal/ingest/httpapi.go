// The merged read endpoints, their rendering and the POST /v1/ingest
// request reader, shared by cmd/availd (single node) and cmd/availgw
// (cluster gateway). Keeping handlers and
// encoding in one place is what makes the gateway's merged answers
// byte-identical to a single node's: both sides run the same code over
// a ReadView, so equality of the underlying Summary is equality of the
// bytes on the wire.
package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"swarmavail/internal/measure"
	"swarmavail/internal/trace"
)

// WriteJSON renders v as indented JSON with the shared encoder settings.
// It encodes into a buffer first, so a value that cannot be encoded
// answers 500 rather than a 200 with no body.
func WriteJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes()) // a failed write is the client gone
}

// ReadView is the state behind the merged read endpoints: a node serves
// its engine (*Engine), the cluster gateway its scatter-gathered merge.
// consistent selects the barrier read (read-your-writes, untagged) over
// the snapshot path, whose etag validates conditional GETs.
type ReadView interface {
	ReadSummary(ctx context.Context, consistent bool) (sum *Summary, etag string, err error)
	ReadWindow(ctx context.Context, consistent bool) (win *WindowState, etag string, err error)
}

// wantConsistent reports whether the request opted out of the snapshot
// path with ?consistent=1 — a full barrier that observes everything
// submitted before the call, bypassing snapshot caches, conditional
// GETs and scatter-gather collapsing.
func wantConsistent(r *http.Request) bool {
	v := r.URL.Query().Get("consistent")
	return v != "" && v != "0"
}

// RegisterReadHandlers mounts the merged read endpoints over v — the
// one handler set availd and availgw both serve, which is what keeps
// the gateway's answers byte-identical to a single node's. Every route
// takes ?consistent=1, revalidates If-None-Match against the view's
// ETag (304), and answers 503 when the view cannot be read.
func RegisterReadHandlers(mux *http.ServeMux, v ReadView) {
	// resolved maps a view error to 503 and a validator hit to 304; true
	// means the caller still owes the body.
	resolved := func(w http.ResponseWriter, r *http.Request, etag string, err error) bool {
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return false
		}
		return !NotModified(w, r, etag)
	}
	summary := func(w http.ResponseWriter, r *http.Request) (*Summary, bool) {
		sum, etag, err := v.ReadSummary(r.Context(), wantConsistent(r))
		return sum, resolved(w, r, etag, err)
	}
	window := func(w http.ResponseWriter, r *http.Request) (*WindowState, bool) {
		win, etag, err := v.ReadWindow(r.Context(), wantConsistent(r))
		return win, resolved(w, r, etag, err)
	}
	mux.HandleFunc("GET /v1/summary", func(w http.ResponseWriter, r *http.Request) {
		if sum, ok := summary(w, r); ok {
			WriteSummary(w, sum)
		}
	})
	mux.HandleFunc("GET /v1/availability/cdf", func(w http.ResponseWriter, r *http.Request) {
		qs, err := ParseQuantiles(r.URL.Query().Get("q"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if sum, ok := summary(w, r); ok {
			WriteCDF(w, sum, qs)
		}
	})
	mux.HandleFunc("GET /v1/bundling/summary", func(w http.ResponseWriter, r *http.Request) {
		if sum, ok := summary(w, r); ok {
			WriteBundling(w, sum)
		}
	})
	// The mergeable wire forms: the gateway's scatter-gather payloads.
	mux.HandleFunc("GET /v1/state", func(w http.ResponseWriter, r *http.Request) {
		if sum, ok := summary(w, r); ok {
			WriteState(w, sum)
		}
	})
	mux.HandleFunc("GET /v1/window/state", func(w http.ResponseWriter, r *http.Request) {
		if win, ok := window(w, r); ok {
			WriteJSON(w, win)
		}
	})
	// The trailing ?d= window of time-binned availability (default 24h),
	// downsampled when the span exceeds the fine ring.
	mux.HandleFunc("GET /v1/availability/window", func(w http.ResponseWriter, r *http.Request) {
		days, err := ParseWindowDays(r.URL.Query().Get("d"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if win, ok := window(w, r); ok {
			WriteWindow(w, win, days)
		}
	})
}

// MaxIngestBody bounds one POST /v1/ingest request (32 MiB ≈ 300k
// records) on a node and on the gateway; push clients batch far below
// this.
const MaxIngestBody = 32 << 20

// ReadIngestRequest reads one POST /v1/ingest request — the write-side
// twin of RegisterReadHandlers: the idempotency key headers (source ""
// = unkeyed) and the JSONL body, each record handed to each in order.
// The whole body is parsed before it returns, so a caller that touches
// its engine or its nodes only on ok=true never applies part of a
// request the client was told failed. On ok=false the response has been
// written: 400 for a bad key (an over-long source included) or record
// (an event time the codec refuses included), 413 past MaxIngestBody or
// MaxFrameOps records.
func ReadIngestRequest(w http.ResponseWriter, r *http.Request, each func(Record)) (source string, seq uint64, ok bool) {
	if source = r.Header.Get(HeaderSource); source != "" {
		// The frame codec's bound, checked at the edge: past it the key
		// could not be journaled, and a memory-only node would keep a
		// window under it for good.
		if len(source) > maxSourceLen {
			http.Error(w, fmt.Sprintf("%s header of %d bytes exceeds %d", HeaderSource, len(source), maxSourceLen), http.StatusBadRequest)
			return "", 0, false
		}
		var err error
		if seq, err = strconv.ParseUint(r.Header.Get(HeaderSeq), 10, 64); err != nil || seq == 0 {
			http.Error(w, "bad "+HeaderSeq+" header", http.StatusBadRequest)
			return "", 0, false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxIngestBody)
	src := trace.NewScanner[Record](r.Body)
	n := 0
	for ; src.Scan(); n++ {
		// The codec's admission test and its frame bound, checked at the
		// edge: past either the request could not be journaled as the one
		// frame it is.
		op := EventOp(src.Record())
		if n == MaxFrameOps {
			http.Error(w, fmt.Sprintf("body exceeds %d records", MaxFrameOps), http.StatusRequestEntityTooLarge)
			return "", 0, false
		}
		if err := op.check(n); err != nil {
			http.Error(w, fmt.Sprintf("bad record %d: %v", n, err), http.StatusBadRequest)
			return "", 0, false
		}
		each(op.rec)
	}
	if err := src.Err(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("bad record %d: %v", n, err), http.StatusBadRequest)
		}
		return "", 0, false
	}
	return source, seq, true
}

// SummaryResponse is the GET /v1/summary body: the summary's public
// counters plus the §2 headline fractions.
type SummaryResponse struct {
	*Summary
	Headlines measure.StudyHeadlines `json:"headlines"`
}

// WriteSummary renders sum as a /v1/summary response.
func WriteSummary(w http.ResponseWriter, sum *Summary) {
	WriteJSON(w, SummaryResponse{Summary: sum, Headlines: sum.Headlines()})
}

// DefaultCDFQuantiles is the quantile list served when the request does
// not name one.
var DefaultCDFQuantiles = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// CDFResponse is the GET /v1/availability/cdf body.
type CDFResponse struct {
	Swarms     int                `json:"swarms"`
	FirstMonth map[string]float64 `json:"first_month_quantiles"`
	Full       map[string]float64 `json:"full_quantiles"`
	// ToleranceAbs is the sketch resolution: every quantile is within
	// this of the exact order statistic.
	ToleranceAbs float64                `json:"tolerance_abs"`
	Headlines    measure.StudyHeadlines `json:"headlines"`
}

// NewCDFResponse evaluates sum's availability sketches at qs. While the
// sketches hold no samples the quantile maps are empty (an empty
// sketch's quantiles are NaN, which JSON cannot carry).
func NewCDFResponse(sum *Summary, qs []float64) CDFResponse {
	resp := CDFResponse{
		Swarms:       sum.StudySwarms,
		FirstMonth:   make(map[string]float64, len(qs)),
		Full:         make(map[string]float64, len(qs)),
		ToleranceAbs: sum.Full.Resolution(),
		Headlines:    sum.Headlines(),
	}
	if sum.Full.N() == 0 {
		return resp
	}
	for _, q := range qs {
		key := strconv.FormatFloat(q, 'g', -1, 64)
		resp.FirstMonth[key] = sum.FirstMonth.Quantile(q)
		resp.Full[key] = sum.Full.Quantile(q)
	}
	return resp
}

// WriteCDF renders sum's quantiles at qs as a /v1/availability/cdf
// response.
func WriteCDF(w http.ResponseWriter, sum *Summary, qs []float64) {
	WriteJSON(w, NewCDFResponse(sum, qs))
}

// ParseQuantiles parses a ?q=0.25,0.5,… list; an empty argument selects
// DefaultCDFQuantiles. Every entry must lie in [0, 1], so NaN is refused.
func ParseQuantiles(arg string) ([]float64, error) {
	if arg == "" {
		return DefaultCDFQuantiles, nil
	}
	var qs []float64
	for _, part := range strings.Split(arg, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(q >= 0 && q <= 1) {
			return nil, fmt.Errorf("bad quantile list")
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// WriteState renders sum's full mergeable wire form — the scatter-gather
// payload served on GET /v1/state.
func WriteState(w http.ResponseWriter, sum *Summary) {
	WriteJSON(w, sum.State())
}

// bundlingCategory is one content category's row of the
// GET /v1/bundling/summary body (§2.3's bundling extent and the
// seedless/demand comparison).
type bundlingCategory struct {
	Category             string  `json:"category"`
	Swarms               int     `json:"swarms"`
	Bundles              int     `json:"bundles"`
	BundleFraction       float64 `json:"bundle_fraction"`
	Collections          int     `json:"collections"`
	SeedlessAll          float64 `json:"seedless_all"`
	SeedlessBundles      float64 `json:"seedless_bundles"`
	MeanDownloadsAll     float64 `json:"mean_downloads_all"`
	MeanDownloadsBundles float64 `json:"mean_downloads_bundles"`
}

// WriteBundling renders sum's per-category census counters as a
// /v1/bundling/summary response, categories in a fixed order.
func WriteBundling(w http.ResponseWriter, sum *Summary) {
	cats := make([]trace.Category, 0, len(sum.Categories))
	for cat := range sum.Categories {
		cats = append(cats, cat)
	}
	slices.Sort(cats)
	out := struct {
		CensusSwarms int                `json:"census_swarms"`
		Categories   []bundlingCategory `json:"categories"`
	}{CensusSwarms: sum.CensusSwarms}
	for _, cat := range cats {
		cc := sum.Categories[cat]
		cmp := cc.Compare(cat)
		out.Categories = append(out.Categories, bundlingCategory{
			Category:             cat.String(),
			Swarms:               cc.Swarms,
			Bundles:              cc.Bundles,
			BundleFraction:       cc.Extent(cat).BundleFraction(),
			Collections:          cc.Collections,
			SeedlessAll:          cmp.SeedlessAll,
			SeedlessBundles:      cmp.SeedlessBundles,
			MeanDownloadsAll:     cmp.MeanDownloadsAll,
			MeanDownloadsBundles: cmp.MeanDownloadsBundles,
		})
	}
	WriteJSON(w, out)
}

// ParseWindowDays parses a ?d= window length: a Go duration ("24h",
// "30m") or a bare number of days ("7"). Empty selects one day.
func ParseWindowDays(arg string) (float64, error) {
	if arg == "" {
		return 1, nil
	}
	if dur, err := time.ParseDuration(arg); err == nil {
		if dur <= 0 {
			return 0, fmt.Errorf("window must be positive")
		}
		return dur.Hours() / 24, nil
	}
	d, err := strconv.ParseFloat(arg, 64)
	if err != nil || d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
		return 0, fmt.Errorf("bad window %q (want a duration like 24h or a number of days)", arg)
	}
	return d, nil
}

// WindowBin is one rendered time bin of a windowed response. Day spans
// and availabilities are derived from the integer WindowState sums at
// render time, so identical states render to identical bytes.
type WindowBin struct {
	Index    int64   `json:"index"`
	StartDay float64 `json:"start_day"`
	EndDay   float64 `json:"end_day"`
	// Availability is covered/tracked within the bin (0 when nothing
	// was tracked); TrackedDays and CoveredDays are the underlying
	// observed and seeded time.
	Availability float64 `json:"availability"`
	TrackedDays  float64 `json:"tracked_days"`
	CoveredDays  float64 `json:"covered_days"`
	BusyStarts   uint64  `json:"busy_starts,omitempty"`
	Events       uint64  `json:"events,omitempty"`
	Swarms       uint64  `json:"swarms,omitempty"`
}

// renderBins converts the trailing n state bins (ending at the newest
// present index) to their rendered form; binDays is the bin width of
// the slice being rendered.
func renderBins(bins []WindowBinState, binDays float64, n int64) []WindowBin {
	if len(bins) == 0 || n <= 0 {
		return nil
	}
	hi := bins[len(bins)-1].Index
	lo := hi - n + 1
	out := make([]WindowBin, 0, n)
	for _, b := range bins {
		if b.Index < lo {
			continue
		}
		rb := WindowBin{
			Index:       b.Index,
			StartDay:    float64(b.Index) * binDays,
			EndDay:      float64(b.Index+1) * binDays,
			TrackedDays: float64(b.Tracked) / winUnitsPerBin * binDays,
			CoveredDays: float64(b.Covered) / winUnitsPerBin * binDays,
			BusyStarts:  b.BusyStarts,
			Events:      b.Events,
			Swarms:      b.Swarms,
		}
		if b.Tracked > 0 {
			rb.Availability = float64(b.Covered) / float64(b.Tracked)
		}
		out = append(out, rb)
	}
	return out
}

// WindowResponse is the GET /v1/availability/window body: the trailing
// window of time bins at the finest resolution that covers the
// requested span, plus the aggregate availability over it.
type WindowResponse struct {
	// WindowDays is the requested span; BinDays the width of the bins
	// actually served; Resolution names which ring they came from.
	WindowDays float64 `json:"window_days"`
	BinDays    float64 `json:"bin_days"`
	Resolution string  `json:"resolution"` // "fine" or "coarse"
	// Availability is covered/tracked summed over the returned bins.
	Availability float64     `json:"availability"`
	Bins         []WindowBin `json:"bins"`
}

// NewWindowResponse renders the trailing days-long window of win. Spans
// that fit in the fine ring serve full-resolution bins; longer spans
// fall back to the coarse (downsampled) ring, clamped to retention.
func NewWindowResponse(win *WindowState, days float64) WindowResponse {
	resp := WindowResponse{WindowDays: days, BinDays: win.BinDays, Resolution: "fine"}
	// Bin counts stay in float until clamped: a span past retention can
	// exceed int64.
	bins, n := win.Fine, math.Ceil(days/win.BinDays)
	if n > float64(win.FineBins) {
		resp.Resolution = "coarse"
		resp.BinDays = win.BinDays * float64(win.FoldFactor)
		bins, n = win.Coarse, math.Min(math.Ceil(days/resp.BinDays), float64(win.CoarseBins))
	}
	resp.Bins = renderBins(bins, resp.BinDays, int64(n))
	resp.Availability = windowAvailability(bins, int64(n))
	return resp
}

// windowAvailability is covered/tracked over the trailing n state bins.
func windowAvailability(bins []WindowBinState, n int64) float64 {
	if len(bins) == 0 || n <= 0 {
		return 0
	}
	lo := bins[len(bins)-1].Index - n + 1
	var covered, tracked uint64
	for _, b := range bins {
		if b.Index < lo {
			continue
		}
		covered += b.Covered
		tracked += b.Tracked
	}
	if tracked == 0 {
		return 0
	}
	return float64(covered) / float64(tracked)
}

// WriteWindow renders win's trailing window as a
// /v1/availability/window response.
func WriteWindow(w http.ResponseWriter, win *WindowState, days float64) {
	WriteJSON(w, NewWindowResponse(win, days))
}

// TimelineResponse is the GET /v1/swarm/{id}/timeline body: one swarm's
// full windowed history — per-bin availability and busy-period starts
// at fine resolution, plus the downsampled tail.
type TimelineResponse struct {
	SwarmID       int         `json:"swarm_id"`
	BinDays       float64     `json:"bin_days"`
	Bins          []WindowBin `json:"bins"`
	CoarseBinDays float64     `json:"coarse_bin_days"`
	CoarseBins    []WindowBin `json:"coarse_bins,omitempty"`
}

// NewTimelineResponse renders a per-swarm WindowState (from
// Engine.Timeline) in full.
func NewTimelineResponse(id int, win *WindowState) TimelineResponse {
	coarseDays := win.BinDays * float64(win.FoldFactor)
	return TimelineResponse{
		SwarmID:       id,
		BinDays:       win.BinDays,
		Bins:          renderBins(win.Fine, win.BinDays, int64(win.FineBins)),
		CoarseBinDays: coarseDays,
		CoarseBins:    renderBins(win.Coarse, coarseDays, int64(win.CoarseBins)),
	}
}

// NotModified handles HTTP conditional GETs: it stamps etag on the
// response and, when the request's If-None-Match already holds it,
// writes 304 and reports true (the caller skips the body).
func NotModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	if etag == "" {
		return false
	}
	w.Header().Set("ETag", etag)
	for _, cand := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		cand = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(cand), "W/"))
		if cand == etag || cand == "*" {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}
