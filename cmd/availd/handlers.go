package main

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
)

// ServeHTTP is the API listener's handler: the full API once the node
// leads, the standby's control surface until then.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.leading.Load() {
		s.api.ServeHTTP(w, r)
		return
	}
	s.standbyAPI.ServeHTTP(w, r)
}

// handler is the leader API over s.engine.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleLiveness)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/swarm/{id}", s.handleSwarm)
	mux.HandleFunc("GET /v1/swarm/{id}/timeline", s.handleTimeline)
	// The merged read endpoints are the handler set availgw serves too.
	ingest.RegisterReadHandlers(mux, s.engine)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	if s.opts.dataDir != "" && s.engine.WAL() != nil {
		// WAL shipping: a follower replicates this node's journal and
		// checkpoints from these routes.
		(&cluster.WALServer{Log: s.engine.WAL(), Dir: s.opts.dataDir}).Register(mux)
	}
	// The observability surface rides on the API listener too, so a
	// bare deployment (no -admin) still scrapes. Everything is served
	// straight from the engine's registry: the ingest pipeline writes
	// its own series there, and registerSummaryMetrics adds the
	// analytical gauges — nothing is copied field by field here.
	mux.Handle("GET /metrics", obs.MetricsHandler(s.engine.Registry()))
	mux.Handle("GET /debug/vars", obs.VarsHandler(s.engine.Registry()))
	if s.gate != nil {
		return s.gate.Middleware(mux)
	}
	return mux
}

// standbyHandler is the pre-promotion API: readiness, the shipping
// watermark, the scrape, and the promotion trigger.
func (s *server) standbyHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleLiveness)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/follower/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"leader":     s.opts.follow,
			"shipped":    s.follower.Shipped(),
			"bootstraps": s.follower.Bootstraps(),
		})
	})
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	mux.Handle("GET /debug/vars", obs.VarsHandler(s.reg))
	// Everything else is the API this node will serve once promoted;
	// answer 503 so retrying clients keep trying rather than erroring.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "following; not promoted yet", http.StatusServiceUnavailable)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) { ingest.WriteJSON(w, v) }

func handleLiveness(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") }

// handleHealthz is the readiness probe: 200 "serving" exactly when the
// node can take traffic — it has an engine (recovery finished: the
// listener only comes up after OpenDurable returns, and a standby has
// been promoted), is not fenced, and is not yet draining for shutdown.
// The cluster gateway's failure detector keys off this.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var state string
	switch {
	case s.draining.Load():
		state = "draining"
	case s.follower != nil && !s.leading.Load():
		state = "following"
	case s.gate != nil && s.gate.Fenced():
		state = "fenced"
	default:
		writeJSON(w, map[string]string{"state": "serving"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, "{\"state\":%q}\n", state)
}

// handlePromote is the failover trigger: 200 means the node is serving
// — the caller can route traffic the moment this returns.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	// The promoter stamps the successor epoch; a manual (unstamped)
	// promote bumps past whatever epoch the shipped data dir carries.
	var epoch uint64
	if stamp := r.Header.Get(cluster.EpochHeader); stamp != "" {
		var err error
		if epoch, err = strconv.ParseUint(stamp, 10, 64); err != nil || epoch == 0 {
			http.Error(w, "bad "+cluster.EpochHeader+" header", http.StatusBadRequest)
			return
		}
	}
	if code, err := s.promote(epoch); err != nil {
		http.Error(w, fmt.Sprintf("promote: %v", err), code)
		return
	}
	writeJSON(w, map[string]string{"state": "serving"})
}

// swarmID parses the {id} path value, answering 400 when it is not one.
func swarmID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad swarm id", http.StatusBadRequest)
	}
	return id, err == nil
}

// handleSwarm serves one swarm's stats, computed on its home shard: the
// answer is read-your-writes, so ?consistent=1 is accepted and changes
// nothing.
func (s *server) handleSwarm(w http.ResponseWriter, r *http.Request) {
	id, ok := swarmID(w, r)
	if !ok {
		return
	}
	st, ok := s.engine.Swarm(id)
	if !ok {
		http.Error(w, "unknown swarm", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleTimeline serves one swarm's windowed history: per-bin
// availability and busy-period starts at fine resolution plus the
// downsampled tail.
func (s *server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id, ok := swarmID(w, r)
	if !ok {
		return
	}
	win, ok := s.engine.Timeline(id)
	if !ok {
		http.Error(w, "unknown swarm", http.StatusNotFound)
		return
	}
	writeJSON(w, ingest.NewTimelineResponse(id, win))
}

// handleIngest accepts JSONL ingest.Record lines. The whole body is
// parsed before anything touches the engine, so a request that fails —
// oversized (413), malformed (400), or racing shutdown (503) — leaves
// the engine's state exactly as it was: no partial batch is ever
// applied for a request the client was told failed. The 200
// acknowledgement means every record is in the engine's queues (and,
// under -data-dir with the default fsync policy, on stable storage) —
// state a graceful shutdown drains before exiting.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var ops []ingest.Op
	source, seq, ok := ingest.ReadIngestRequest(w, r, func(rec ingest.Record) {
		ops = append(ops, ingest.EventOp(rec))
	})
	if !ok {
		return
	}
	// Idempotency key headers select the exactly-once path: a retried
	// batch whose first attempt was journaled (its ack lost in flight) is
	// acknowledged again without re-applying. applied=false means the
	// batch was such a duplicate: still a full acknowledgement (the
	// records are journaled and applied — once).
	var err error
	if source != "" {
		_, err = s.engine.SubmitKeyed(source, seq, ops)
	} else {
		err = s.engine.Submit(ops)
	}
	if err != nil {
		// A write the draining engine refused: the retrying client treats
		// 503 as temporary and replays the batch elsewhere/later,
		// preserving at-least-once delivery.
		code := http.StatusInternalServerError
		if errors.Is(err, ingest.ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, map[string]int{"accepted": len(ops)})
}
