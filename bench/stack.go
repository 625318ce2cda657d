package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startTimeout bounds one child's start-up, recovery included.
const startTimeout = 60 * time.Second

// buildSUT compiles cmd/availd and cmd/availgw from the repo at root
// into root/.bench_build/bin and reports how long that took.
func buildSUT(ctx context.Context, root string) (binDir string, took time.Duration, err error) {
	binDir = filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/availd", "./cmd/availgw")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building the SUT in %s: %v\n%s", root, err, out)
	}
	return binDir, time.Since(start), nil
}

// findRoot walks up from the working directory to the repo root: the
// directory holding cmd/availd and the module's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "availd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repo root (cmd/availd + go.mod) at or above the working directory")
		}
		dir = parent
	}
}

// proc is one SUT child process.
type proc struct {
	name    string // "node0", "gateway"
	cmd     *exec.Cmd
	http    string // base URL
	bin     string // binary ingest address
	dataDir string // "" for the gateway
	exited  chan struct{}
}

// stack is the system under test: availd nodes and, when the profile
// says so, an availgw in front. front/frontBin are what the load
// generator talks to.
type stack struct {
	spec     StackSpec
	binDir   string
	workDir  string // holds data dirs and child logs
	procs    []*proc
	front    string
	frontBin string
}

// newStack makes a stack with fresh data dirs under a new temp dir.
func newStack(spec StackSpec, binDir string) (*stack, error) {
	dir, err := os.MkdirTemp("", "availbench-")
	if err != nil {
		return nil, err
	}
	return &stack{spec: spec, binDir: binDir, workDir: dir}, nil
}

// start execs every process and returns once the front answers
// /v1/healthz. Nodes recover their data dirs before they print their
// listen lines, so this is also the recovery barrier.
func (s *stack) start() error {
	s.procs = s.procs[:0]
	var urls, bins []string
	for i := 0; i < s.spec.Nodes; i++ {
		name := "node" + strconv.Itoa(i)
		dir := filepath.Join(s.workDir, name)
		p, err := s.exec(name, "availd", dir,
			"-listen", "127.0.0.1:0", "-ingest-bin", "127.0.0.1:0",
			"-data-dir", dir, "-fsync", s.spec.Fsync,
			"-checkpoint-every", durationArg(s.spec.CheckpointEvery))
		if err != nil {
			return err
		}
		urls, bins = append(urls, p.http), append(bins, p.bin)
	}
	front := s.procs[0]
	if s.spec.Gateway {
		var err error
		front, err = s.exec("gateway", "availgw", "",
			"-listen", "127.0.0.1:0", "-ingest-bin", "127.0.0.1:0",
			"-nodes", strings.Join(urls, ","), "-node-bins", strings.Join(bins, ","))
		if err != nil {
			return err
		}
	}
	s.front, s.frontBin = front.http, front.bin
	return s.waitHealthy()
}

// exec starts one child and parses its listen addresses from its
// start-up lines ("<prog>: serving on ADDR …", "<prog>: binary ingest
// on ADDR"). The child's stderr goes to a log file in the work dir.
func (s *stack) exec(name, prog, dataDir string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(s.workDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(s.binDir, prog), args...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, dataDir: dataDir, exited: make(chan struct{})}
	s.procs = append(s.procs, p)

	type addrs struct{ http, bin string }
	ready := make(chan addrs, 1)
	go func() {
		defer close(p.exited)
		var a addrs
		announced := false
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, prog+": serving on "); ok {
				a.http = "http://" + strings.Fields(rest)[0]
			} else if rest, ok := strings.CutPrefix(line, prog+": binary ingest on "); ok {
				a.bin = strings.Fields(rest)[0]
			}
			if a.http != "" && a.bin != "" && !announced {
				ready <- a
				announced = true
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
	}()
	select {
	case a := <-ready:
		p.http, p.bin = a.http, a.bin
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited during start-up:\n%s", name, s.logTail(name))
	case <-time.After(startTimeout):
		return nil, fmt.Errorf("%s printed no listen addresses within %v", name, startTimeout)
	}
}

func (s *stack) logTail(name string) string {
	raw, _ := os.ReadFile(filepath.Join(s.workDir, name+".log"))
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

func (s *stack) waitHealthy() error {
	deadline := time.Now().Add(startTimeout)
	for {
		resp, err := http.Get(s.front + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/v1/healthz not 200 within %v (last error: %v)", s.front, startTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// signal sends sig to every live process and waits until all have
// exited, returning how long that took.
func (s *stack) signal(sig syscall.Signal) time.Duration {
	start := time.Now()
	for _, p := range s.procs {
		_ = p.cmd.Process.Signal(sig)
	}
	for _, p := range s.procs {
		select {
		case <-p.exited:
		case <-time.After(startTimeout):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
	s.procs = s.procs[:0]
	return time.Since(start)
}

// kill stops whatever still runs. The data dirs stay until the run's
// cleanUp.
func (s *stack) kill() { s.signal(syscall.SIGKILL) }

// usage is a point-in-time reading of the SUT's resource counters.
type usage struct {
	cpuS    map[string]float64 // per process name: utime+stime, seconds
	hwmMiB  float64            // sum of VmHWM
	dirSize int64              // bytes under every node's data dir
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's CPU fields; it
// is 100 on every Linux port Go supports.
const clockTick = 100

func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for pid %d", pid)
	}
	return (ut + st) / clockTick, nil
}

func procHWMMiB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func (s *stack) usage() (usage, error) {
	u := usage{cpuS: make(map[string]float64, len(s.procs))}
	for _, p := range s.procs {
		cpu, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		u.cpuS[p.name] = cpu
		hwm, err := procHWMMiB(p.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		u.hwmMiB += hwm
		if p.dataDir != "" {
			n, err := dirBytes(p.dataDir)
			if err != nil {
				return u, err
			}
			u.dirSize += n
		}
	}
	return u, nil
}

// vars scrapes one process's /debug/vars: the same series as /metrics,
// as flat JSON.
func (p *proc) vars() (map[string]float64, error) {
	resp, err := http.Get(p.http + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/debug/vars: %s", p.http, resp.Status)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// scrapeAll reads /debug/vars of every process, keyed by process name.
func (st *stack) scrapeAll() (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64, len(st.procs))
	for _, p := range st.procs {
		v, err := p.vars()
		if err != nil {
			return nil, err
		}
		out[p.name] = v
	}
	return out, nil
}
