package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/altpolicy"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/wgen"
)

// serverConfig bounds what the server will simulate.
type serverConfig struct {
	// Workers bounds concurrently running simulations; requests beyond it
	// queue on the semaphore.
	Workers int
	// CacheSize is the LRU capacity in scenario results (0 disables).
	CacheSize int
	// MaxJobs rejects what-ifs whose workload exceeds this many jobs
	// (0 = unlimited). The Million/TenMillion presets are minutes of CPU;
	// an open endpoint needs a ceiling.
	MaxJobs int
	// AllowSWF permits .swf workload paths, i.e. serving files from the
	// server's filesystem. Off by default: a remote client choosing local
	// paths is a read primitive.
	AllowSWF bool
}

// server answers what-if queries over shared compiled scenarios. One
// compiler (and so one workload arena per preset/log) backs every
// request; results are cached by canonical scenario hash and identical
// in-flight requests are coalesced into one simulation.
type server struct {
	cfg   serverConfig
	comp  scenario.Compiler
	cache *resultCache
	sem   chan struct{} // simulation worker slots

	mu       sync.Mutex
	inflight map[string]*flight // scenario hash → running simulation

	hits, misses, errors atomic.Int64
}

// flight is one running simulation identical requests wait on.
type flight struct {
	done chan struct{}
	resp whatifResponse
	err  error
}

func newServer(cfg serverConfig) *server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheSize),
		sem:      make(chan struct{}, cfg.Workers),
		inflight: make(map[string]*flight),
	}
}

// whatifResponse is the answer to one what-if query. Cached and
// ElapsedMS are per-request (a cache hit reports cached=true and the
// lookup's elapsed time, not the original simulation's).
type whatifResponse struct {
	Hash      string          `json:"hash"`
	Cached    bool            `json:"cached"`
	Workload  string          `json:"workload"`
	Jobs      int             `json:"jobs"`
	CPUs      int             `json:"cpus"`
	Policy    string          `json:"policy"`
	Results   metrics.Results `json:"results"`
	PowerCap  *capStats       `json:"power_cap,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// capStats reports the power-cap controller's tracking statistics for
// capped scenarios (absent otherwise).
type capStats struct {
	Cap        float64 `json:"cap"`
	AvgDraw    float64 `json:"avg_draw"`
	PeakDraw   float64 `json:"peak_draw"`
	OverFrac   float64 `json:"over_cap_time_frac"`
	Actuations int     `json:"actuations"`
}

// errorResponse is the JSON error shape.
type errorResponse struct {
	Error string `json:"error"`
}

// mux wires the server's routes.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", s.handleHealthz)
	m.HandleFunc("/v1/whatif", s.handleWhatif)
	m.HandleFunc("/v1/stats", s.handleStats)
	return m
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statsResponse reports cache effectiveness and error volume. Hits are
// answers served from the result cache and Misses the simulations run; a
// request that joins an identical in-flight simulation counts as neither.
type statsResponse struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Errors       int64 `json:"errors"`
	CacheEntries int   `json:"cache_entries"`
	Workers      int   `json:"workers"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Errors:       s.errors.Load(),
		CacheEntries: s.cache.Len(),
		Workers:      s.cfg.Workers,
	})
}

// handleWhatif answers POST /v1/whatif: the body is the JSON form of
// scenario.Spec (workload name, policy, machine, platform overrides).
func (s *server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST a scenario spec"})
		return
	}
	var spec scenario.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if status, err := s.admit(spec); err != nil {
		s.errors.Add(1)
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}

	start := time.Now()
	sc, err := s.comp.Compile(spec)
	if err != nil {
		s.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if resp, ok := s.cache.Get(sc.Hash()); ok {
		s.hits.Add(1)
		resp.Cached = true
		resp.ElapsedMS = msSince(start)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp, err := s.execute(r, sc)
	if err != nil {
		s.errors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// admit applies the server's workload policy before any compilation
// work happens.
func (s *server) admit(spec scenario.Spec) (int, error) {
	if spec.Workload == "" {
		return http.StatusBadRequest, fmt.Errorf("workload is required (a preset name%s)", swfHint(s.cfg.AllowSWF))
	}
	if strings.HasSuffix(spec.Workload, ".swf") {
		if !s.cfg.AllowSWF {
			return http.StatusForbidden, fmt.Errorf("SWF file workloads are disabled on this server (start with -allow-swf)")
		}
		return 0, nil
	}
	if s.cfg.MaxJobs > 0 {
		// The preset's native length applies when the request doesn't
		// override it; checking here keeps oversized requests from paying
		// compile-time generation passes before being refused.
		m, err := wgen.Preset(spec.Workload)
		if err != nil {
			return http.StatusBadRequest, err
		}
		jobs := spec.Jobs
		if jobs == 0 {
			jobs = m.Jobs
		}
		if jobs > s.cfg.MaxJobs {
			return http.StatusForbidden, fmt.Errorf("workload %s at %d jobs exceeds this server's -max-jobs %d", spec.Workload, jobs, s.cfg.MaxJobs)
		}
	}
	return 0, nil
}

func swfHint(allowed bool) string {
	if allowed {
		return " or .swf path"
	}
	return ""
}

// execute runs the scenario on a worker slot, coalescing identical
// in-flight requests onto one simulation: the first request simulates,
// the rest wait on its flight and share the answer.
func (s *server) execute(r *http.Request, sc *scenario.Scenario) (whatifResponse, error) {
	key := sc.Hash()
	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.resp, f.err
		case <-r.Context().Done():
			return whatifResponse{}, r.Context().Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()
	s.misses.Add(1)

	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
	}()

	s.sem <- struct{}{} // acquire a worker slot
	out, err := sc.Execute()
	<-s.sem
	if err != nil {
		f.err = err
		return whatifResponse{}, err
	}
	f.resp = whatifResponse{
		Hash:     key,
		Workload: sc.Workload(),
		Jobs:     out.Results.Jobs,
		CPUs:     out.CPUs,
		Policy:   out.Policy,
		Results:  out.Results,
	}
	if pc, ok := out.Controller.(*altpolicy.PowerCap); ok {
		rep := pc.Report()
		f.resp.PowerCap = &capStats{
			Cap: rep.Cap, AvgDraw: rep.AvgDraw, PeakDraw: rep.PeakDraw,
			OverFrac: rep.OverFrac, Actuations: rep.Actuations,
		}
	}
	s.cache.Put(key, f.resp)
	return f.resp, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
