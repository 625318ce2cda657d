package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// EpochHeader carries the cluster slot epoch: the gateway's exchange
// stamps it on every request it sends a node, and a node's EpochGate
// fences by it and echoes its own epoch on every response.
const EpochHeader = "X-Avail-Epoch"

// EpochConflictError is a node's 409: its epoch (NodeEpoch) and the
// request's stamp disagree, or it is fenced. Retrying at the same stamp
// cannot change the verdict.
type EpochConflictError struct {
	ClientEpoch uint64
	NodeEpoch   uint64
}

func (e *EpochConflictError) Error() string {
	return fmt.Sprintf("cluster: epoch conflict (stamped %d, node at %d)", e.ClientEpoch, e.NodeEpoch)
}

// epochFile is the slot epoch's on-disk name inside a node's data dir,
// next to the WAL segments and checkpoints it fences.
const epochFile = "cluster-epoch.json"

// epochState is the persisted form: the slot epoch this node last
// served at, and whether it has been fenced (saw a newer epoch and
// demoted itself). Fencing is persisted so a zombie leader that
// restarts after the cluster moved past it comes back fenced, not
// writable.
type epochState struct {
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced"`
}

// EpochGate is a node's side of cluster epoch fencing: a monotonic
// per-slot epoch plus a fenced flag, persisted in the data dir. Its
// Middleware stamps every response with the node's epoch and rejects
// requests the epoch algebra says must not be served (see Middleware).
//
// State machine: a node starts at the persisted epoch (1 on a fresh
// dir). Promotion Adopts the successor epoch. A request stamped with a
// newer epoch demotes the node — it persists the newer epoch with
// fenced=true and refuses writes (and stamped reads) from then on,
// which is what makes a partitioned-but-alive leader harmless once the
// partition heals: the gateway's first stamped probe fences it.
type EpochGate struct {
	dir    string // "" = memory-only (in-memory engines)
	epoch  atomic.Uint64
	fenced atomic.Bool

	// mu serialises persisted-state transitions (Adopt, demote) so two
	// concurrent demotions cannot interleave their file writes.
	mu sync.Mutex

	fencedTotal *obs.Counter
	logf        func(format string, args ...any)
}

// OpenEpochGate loads (or initialises) the slot epoch persisted in dir
// and registers the gate's instruments on reg: cluster_epoch (gauge)
// and cluster_fenced_requests_total. dir may be "" for an engine
// without a data dir — the gate then lives in memory only.
func OpenEpochGate(dir string, reg *obs.Registry, logf func(format string, args ...any)) (*EpochGate, error) {
	g := &EpochGate{dir: dir, logf: logf, fencedTotal: reg.Counter("cluster_fenced_requests_total")}
	st := epochState{Epoch: 1}
	if dir != "" {
		data, err := os.ReadFile(filepath.Join(dir, epochFile))
		switch {
		case err == nil:
			if jerr := json.Unmarshal(data, &st); jerr != nil {
				return nil, fmt.Errorf("cluster: corrupt %s: %w", epochFile, jerr)
			}
			if st.Epoch == 0 {
				st.Epoch = 1
			}
		case os.IsNotExist(err):
			// Fresh dir: epoch 1, not fenced. Persist lazily on the first
			// transition; an all-defaults file adds nothing.
		default:
			return nil, err
		}
	}
	g.epoch.Store(st.Epoch)
	g.fenced.Store(st.Fenced)
	reg.GaugeFunc("cluster_epoch", func() float64 { return float64(g.epoch.Load()) })
	return g, nil
}

// Epoch returns the node's current slot epoch.
func (g *EpochGate) Epoch() uint64 { return g.epoch.Load() }

// Fenced reports whether the node has demoted itself.
func (g *EpochGate) Fenced() bool { return g.fenced.Load() }

// Adopt installs epoch as the node's own — the promotion path. It
// clears any fence (the node is the legitimate owner at this epoch) and
// fails if epoch would move backwards.
func (g *EpochGate) Adopt(epoch uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur := g.epoch.Load(); epoch < cur {
		return fmt.Errorf("cluster: cannot adopt epoch %d below current %d", epoch, cur)
	}
	if err := g.persist(epochState{Epoch: epoch, Fenced: false}); err != nil {
		return err
	}
	g.epoch.Store(epoch)
	g.fenced.Store(false)
	return nil
}

// demote fences the node at the newer epoch it just witnessed. The
// in-memory fence is installed even when persisting fails — refusing
// writes now matters more than remembering the refusal across a
// restart.
func (g *EpochGate) demote(epoch uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch < g.epoch.Load() {
		epoch = g.epoch.Load()
	}
	if err := g.persist(epochState{Epoch: epoch, Fenced: true}); err != nil && g.logf != nil {
		g.logf("cluster: persisting fence at epoch %d: %v", epoch, err)
	}
	g.epoch.Store(epoch)
	g.fenced.Store(true)
}

// persist writes st atomically and durably: a fence that persist
// reported written is still there after a power cut. Caller holds mu.
func (g *EpochGate) persist(st epochState) error {
	if g.dir == "" {
		return nil
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = wal.WriteFileAtomic(filepath.Join(g.dir, epochFile), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	return err
}

// isWrite reports whether r mutates node state. Reads from a fenced
// node stay served when unstamped (operators debugging a demoted node,
// followers shipping its WAL); writes never.
func isWrite(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	}
	return true
}

// Middleware enforces the epoch algebra around next and stamps every
// response with the node's current epoch:
//
//   - request stamped with a newer epoch: the cluster has moved past us
//     — demote (persist the fence) and answer 409. This applies to
//     reads too: the gateway's post-heal probe is a stamped GET.
//   - request stamped with an older epoch: the sender is stale — 409
//     with our epoch so it can re-learn.
//   - request stamped with our epoch, node fenced: 409 — our state
//     diverged the moment we were fenced and must not be merged.
//   - unstamped write, node fenced: 409 (a zombie's direct clients
//     don't get to bypass the fence by omitting the header).
//   - unstamped read: always served.
func (g *EpochGate) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		own := g.epoch.Load()
		w.Header().Set(EpochHeader, strconv.FormatUint(own, 10))
		stamp := r.Header.Get(EpochHeader)
		if stamp == "" {
			if g.fenced.Load() && isWrite(r) {
				g.reject(w, own, "node fenced at epoch")
				return
			}
			next.ServeHTTP(w, r)
			return
		}
		reqE, err := strconv.ParseUint(stamp, 10, 64)
		if err != nil || reqE == 0 {
			http.Error(w, "bad "+EpochHeader+" header", http.StatusBadRequest)
			return
		}
		switch {
		case reqE > own:
			if g.logf != nil {
				g.logf("cluster: fenced by epoch %d request (own epoch %d)", reqE, own)
			}
			g.demote(reqE)
			w.Header().Set(EpochHeader, strconv.FormatUint(g.epoch.Load(), 10))
			g.reject(w, g.epoch.Load(), "demoted by newer epoch")
		case reqE < own:
			g.reject(w, own, "request epoch stale, node at epoch")
		case g.fenced.Load():
			g.reject(w, own, "node fenced at epoch")
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// reject answers 409 with the node's epoch and counts the fenced
// request.
func (g *EpochGate) reject(w http.ResponseWriter, epoch uint64, why string) {
	g.fencedTotal.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(map[string]any{
		"error": fmt.Sprintf("%s %d", why, epoch),
		"epoch": epoch,
	})
}
