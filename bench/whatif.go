package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/wgen"
)

// The whatif-miss workload is an open-loop Poisson stream of new what-if
// questions against a freshly started cmd/schedd over at most whatifConns
// connections.
//
// Its rate: the operator stream modelled here sends 16 req/s, half of
// them new 5000-job questions, whose mean unloaded server time is 88 ms
// on the reference host (README): 8 × 0.088 s / 2 workers keeps
// targetLoad of schedd's simulation workers busy. whatif-miss offers the
// same load with 1000-job questions, 5.8 times cheaper, so a run has
// about 1160 samples per 25 s instead of 200.
const (
	targetLoad = 0.35
	meanMissMS = 15.1 // mean unloaded server time of a whatifJobs miss
)

var missRate = targetLoad * whatifConns / (meanMissMS / 1000)

const (
	whatifJobs    = 1000 // jobs per what-if question
	whatifConns   = 2    // client connections, and schedd's -workers
	reexecEvery   = 10   // every reexecEvery-th miss is re-executed in-process
	serverTimeout = 20 * time.Second
)

// whatifResponse is the part of schedd's answer the benchmark reads.
type whatifResponse struct {
	Hash      string          `json:"hash"`
	Cached    bool            `json:"cached"`
	Jobs      int             `json:"jobs"`
	Results   metrics.Results `json:"results"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// request is one what-if request and its outcome.
type request struct {
	spec scenario.Spec
	body []byte
	due  time.Duration // when it is due, from the start of its window

	sent, done time.Duration
	resp       whatifResponse
	err        error
}

func (r *request) latency() time.Duration { return r.done - r.due }

func newRequest(spec scenario.Spec) (*request, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &request{spec: spec, body: b}, nil
}

// specKey identifies a what-if result in schedd's cache: the scenario
// hash covers the resolved machine size, not the size factor.
type specKey struct {
	workload string
	cpus     int
	policy   scenario.PolicyConfig
	capFrac  float64
}

func keyOf(s scenario.Spec) (specKey, error) {
	m, err := wgen.Preset(s.Workload)
	if err != nil {
		return specKey{}, err
	}
	f := s.SizeFactor
	if f == 0 {
		f = 1
	}
	return specKey{s.Workload, int(math.Round(float64(m.CPUs) * f)), s.Policy, s.Controller.CapFrac}, nil
}

// gridPolicies are the paper grid's policies: the baseline and every
// BSLD × WQ threshold pair.
func gridPolicies() []scenario.PolicyConfig {
	pols := []scenario.PolicyConfig{{}}
	for _, b := range experiments.BSLDThresholds() {
		for _, q := range experiments.WQThresholds() {
			pols = append(pols, scenario.PolicyConfig{BSLDThr: b, WQThr: q})
		}
	}
	return pols
}

// warmSpecs are one request per paper preset, sent during set-up so every
// workload arena is resolved before timing starts.
func warmSpecs(jobs int) []scenario.Spec {
	var specs []scenario.Spec
	for _, p := range experiments.Workloads() {
		specs = append(specs, scenario.Spec{Workload: p, Jobs: jobs, Policy: paperPolicy})
	}
	return specs
}

// missSpecs draws n specs no earlier request asked. They come in cycles
// of twenty: each paper preset four times, once with a power cap (0.6 in
// even cycles, 0.8 in odd ones), in seeded order, so every run sends the
// same mix of cheap and expensive questions. Policies are dealt from a
// seeded shuffle of the paper grid's, reshuffled when used up; the size
// factor is drawn from [1, 1.3] until the machine size is new for that
// preset, policy and cap.
func missSpecs(rng *rand.Rand, n, jobs int, used map[specKey]bool) ([]scenario.Spec, error) {
	var deck []scenario.PolicyConfig
	deal := func() scenario.PolicyConfig {
		if len(deck) == 0 {
			deck = gridPolicies()
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		p := deck[0]
		deck = deck[1:]
		return p
	}
	var specs []scenario.Spec
	for c := 0; len(specs) < n; c++ {
		var cycle []scenario.Spec
		for _, p := range experiments.Workloads() {
			for k := 0; k < 4; k++ {
				s := scenario.Spec{Workload: p, Jobs: jobs, Policy: deal()}
				if k == 3 {
					s.Controller.CapFrac = []float64{0.6, 0.8}[c%2]
				}
				cycle = append(cycle, s)
			}
		}
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, s := range cycle {
			for try := 0; ; try++ {
				if try == 1000 {
					return nil, fmt.Errorf("no unused machine size left for %s %s", s.Workload, s.Policy.Label())
				}
				s.SizeFactor = 1 + 0.3*rng.Float64()
				k, err := keyOf(s)
				if err != nil {
					return nil, err
				}
				if !used[k] {
					used[k] = true
					break
				}
			}
			specs = append(specs, s)
		}
	}
	return specs[:n], nil
}

// schedd is one running cmd/schedd process.
type schedd struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
	exited chan error
}

// freeAddr picks a loopback port no one listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startSchedd starts the server and waits until /healthz answers. On
// error the process is already stopped.
func startSchedd(bin string) (*schedd, error) {
	if bin == "" {
		return nil, errors.New("no schedd binary given (-schedd)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &schedd{
		base:   "http://" + addr,
		exited: make(chan error, 1),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: whatifConns, MaxIdleConnsPerHost: whatifConns},
		},
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(whatifConns), "-cache", "256", "-drain", "10s")
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even one that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(serverTimeout)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, fmt.Errorf("schedd exited during start-up: %v: %s", err, strings.TrimSpace(s.stderr.String()))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("schedd did not answer /healthz"), s.stop())
		}
	}
}

// stop ends the server with SIGTERM (SIGKILL if it does not drain in
// time) and waits until the process has exited.
func (s *schedd) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.exited:
		s.exited <- err
		return err
	case <-time.After(serverTimeout):
		if err := s.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			return err
		}
		err := <-s.exited
		s.exited <- err
		return fmt.Errorf("schedd did not stop on SIGTERM: %v", err)
	}
}

// vmHWMMB is the server process's peak resident set size.
func (s *schedd) vmHWMMB() (float64, error) {
	return vmHWMMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

type stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Errors int64 `json:"errors"`
}

func (s *schedd) stats() (stats, error) {
	var st stats
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func (s *schedd) post(body []byte) (whatifResponse, error) {
	var out whatifResponse
	resp, err := s.client.Post(s.base+"/v1/whatif", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	err = json.Unmarshal(b, &out)
	return out, err
}

// send runs reqs open loop: each request is handed to one of conns
// senders when it is due, whether or not earlier ones have been answered,
// and its latency counts from when it was due.
func (s *schedd) send(reqs []*request, conns int, tr *tracer, parent int) {
	ch := make(chan *request, len(reqs)) // one slot per request: the dispatcher never waits
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				r.sent = time.Since(t0)
				r.resp, r.err = s.post(r.body)
				r.done = time.Since(t0)
				tr.add(parent, "schedd", "whatif", t0.Add(r.due), t0.Add(r.done))
			}
		}()
	}
	for _, r := range reqs {
		time.Sleep(time.Until(t0.Add(r.due)))
		ch <- r
	}
	close(ch)
	wg.Wait()
}

// runWhatif runs the schedd workload: set-up (start the server, warm
// it), the timed open-loop window, then the output checks.
func runWhatif(o options, w io.Writer) (rep *report, err error) {
	jobs, n := whatifJobs, int(math.Round(missRate*o.seconds))
	if o.quick {
		jobs, n = 500, 20
	}
	rng := rand.New(rand.NewSource(o.seed))
	prep := warmSpecs(jobs)
	used := map[specKey]bool{}
	for _, s := range prep {
		k, err := keyOf(s)
		if err != nil {
			return nil, err
		}
		used[k] = true
	}
	specs, err := missSpecs(rng, n, jobs, used)
	if err != nil {
		return nil, err
	}
	reqs := make([]*request, n)
	var due time.Duration
	for i, s := range specs {
		if reqs[i], err = newRequest(s); err != nil {
			return nil, err
		}
		due += time.Duration(rng.ExpFloat64() / missRate * float64(time.Second))
		reqs[i].due = due
	}

	rep = &report{}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root := tr.begin(0, "bench", "run")
	var srv *schedd
	defer func() {
		if srv != nil {
			err = errors.Join(err, srv.stop())
		}
	}()
	setups, err := timedRounds(setupBudget, setupReps, func() (time.Duration, error) {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return 0, err
			}
			srv = nil
		}
		id := tr.begin(root, "bench", "setup")
		defer tr.end(id)
		t0 := time.Now()
		var err error
		if srv, err = startSchedd(o.schedd); err != nil {
			return 0, err
		}
		warm := make([]*request, len(prep))
		for i, s := range prep {
			if warm[i], err = newRequest(s); err != nil {
				return 0, err
			}
		}
		// One at a time, so the server's memory peak does not depend on
		// which set-up simulations happened to overlap.
		srv.send(warm, 1, tr, id)
		wall := time.Since(t0)
		for _, q := range warm {
			if q.err != nil {
				return 0, fmt.Errorf("set-up request %s: %w", q.body, q.err)
			}
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}

	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	id := tr.begin(root, "bench", "load")
	srv.send(reqs, whatifConns, tr, id)
	tr.end(id)
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	hwm, err := srv.vmHWMMB()
	if err != nil {
		return nil, err
	}

	var lat, rates []float64
	var latSum, elapsedSum float64
	var late int
	for _, r := range reqs {
		rep.operation(r.err, "request "+string(r.body))
		if r.err != nil {
			continue
		}
		l := r.latency().Seconds()
		lat = append(lat, l*1000)
		rates = append(rates, float64(r.resp.Jobs)/l)
		latSum += l
		elapsedSum += r.resp.ElapsedMS / 1000
		if r.sent-r.due > time.Millisecond {
			late++
		}
		rep.check(!r.resp.Cached, "request %s: answered from the cache", r.body)
		rep.check(r.resp.Jobs == jobs, "request %s: %d jobs, want %d", r.body, r.resp.Jobs, jobs)
	}
	// The share of the server's workers the window kept busy, by the
	// server's own elapsed_ms (which includes waits for a worker slot).
	window := reqs[len(reqs)-1].due.Seconds()
	fmt.Fprintf(w, "server_load %.3f (%d requests at %.1f req/s, mean server time %.2f ms, %d workers)\n",
		elapsedSum/(window*whatifConns), len(reqs), missRate, 1000*elapsedSum/float64(len(lat)), whatifConns)
	rep.check(after.Hits == before.Hits && after.Misses-before.Misses == int64(len(reqs)) &&
		after.Errors == before.Errors,
		"/v1/stats moved by %d hits, %d misses, %d errors; sent %d new questions",
		after.Hits-before.Hits, after.Misses-before.Misses, after.Errors-before.Errors, len(reqs))

	// Re-execute a sample of the answers in-process; each must equal what
	// the server sent.
	var checked []*request
	for i := 0; i < len(reqs); i += reexecEvery {
		if reqs[i].err == nil {
			checked = append(checked, reqs[i])
		}
	}
	var comp scenario.Compiler
	for _, q := range checked {
		sc, err := comp.Compile(q.spec)
		if err == nil {
			var out scenario.Outcome
			out, err = sc.Execute()
			rep.check(err != nil || out.Results == q.resp.Results, "re-executing %s in-process gave different results", q.body)
		}
		rep.operation(err, "re-executing "+string(q.body))
	}

	if o.trace {
		if err := srv.stop(); err != nil {
			return nil, err
		}
		srv = nil
		lr, err := traceReexec(checked, o, rep, tr, root)
		if err != nil {
			return nil, err
		}
		lr.serverFrac = elapsedSum / latSum
		lr.lateFrac = float64(late) / float64(len(reqs))
		tr.end(root)
		if err := lr.finish(o, tr, w); err != nil {
			return nil, err
		}
		lr.add(rep)
		return rep, nil
	}
	rep.add("jobs_per_s", "jobs/s", quantile(rates, 0.5), rates)
	rep.add("p50_ms", "ms", quantile(lat, 0.5), lat)
	rep.add("p90_ms", "ms", quantile(lat, 0.9), lat)
	rep.add("setup_s", "s", quantile(setups, 0.5), setups)
	rep.add("peak_rss_mb", "MB", hwm, nil)
	return rep, nil
}

// reexecBudget is how many seconds a traced whatif run spends
// re-executing the checked specs in-process, untraced and then traced.
const reexecBudget = 2

// traceReexec measures the in-process layers behind the server's answers:
// the checked specs run through tracedPass, whose untraced results must
// also equal the server's.
func traceReexec(checked []*request, o options, rep *report, tr *tracer, root int) (*layerReport, error) {
	var ins []simInput
	for _, q := range checked {
		m, err := wgen.Preset(q.spec.Workload)
		if err != nil {
			return nil, err
		}
		m.Jobs = q.spec.Jobs
		spec := scenario.Spec{Policy: q.spec.Policy, Controller: q.spec.Controller, SizeFactor: q.spec.SizeFactor}
		ins = append(ins, simInput{label: string(q.body), model: m, spec: spec})
	}
	plain, lr, err := tracedPass(ins, reexecBudget, o, rep, tr, root)
	if err != nil {
		return nil, err
	}
	for i, c := range plain {
		rep.check(c.ref != nil && *c.ref == checked[i].resp.Results, "%s: in-process results differ from the server's", c.in.label)
	}
	return lr, nil
}
