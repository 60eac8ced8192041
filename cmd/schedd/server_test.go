package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinySpec is a CTC what-if small enough for unit tests.
const tinySpec = `{"workload": "CTC", "jobs": 300, "policy": {"bsld_thr": 2, "wq_thr": 4}}`

func postWhatif(t *testing.T, ts *httptest.Server, body string) (int, whatifResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/whatif", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/whatif: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var out whatifResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode response (status %d): %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, out, string(raw)
}

func TestWhatifRoundTripAndCacheHit(t *testing.T) {
	s := newServer(serverConfig{Workers: 2, CacheSize: 8})
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	status, first, raw := postWhatif(t, ts, tinySpec)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d\n%s", status, raw)
	}
	if first.Cached {
		t.Fatalf("first request reported cached=true")
	}
	if first.Hash == "" || first.Jobs != 300 || first.Policy == "" || first.Results.AvgBSLD <= 0 {
		t.Fatalf("implausible first response: %+v", first)
	}

	status, second, raw := postWhatif(t, ts, tinySpec)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d\n%s", status, raw)
	}
	if !second.Cached {
		t.Fatalf("second identical request missed the cache: %+v", second)
	}
	if second.Hash != first.Hash {
		t.Fatalf("hash changed between identical requests: %q vs %q", first.Hash, second.Hash)
	}
	if second.Results != first.Results {
		t.Fatalf("cached results differ from originals:\n%+v\n%+v", first.Results, second.Results)
	}
	if h, m := s.hits.Load(), s.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
}

// TestWhatifConcurrentIdenticalRequests hammers one spec from many
// goroutines: every answer must be bit-identical, and the in-flight
// coalescing plus cache must keep the simulation count at one.
func TestWhatifConcurrentIdenticalRequests(t *testing.T) {
	s := newServer(serverConfig{Workers: 4, CacheSize: 8})
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	const n = 8
	responses := make([]whatifResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, out, raw := postWhatif(t, ts, tinySpec)
			if status != http.StatusOK {
				t.Errorf("goroutine %d: status %d\n%s", i, status, raw)
				return
			}
			responses[i] = out
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if responses[i].Results != responses[0].Results {
			t.Fatalf("goroutine %d got different results:\n%+v\n%+v",
				i, responses[0].Results, responses[i].Results)
		}
		if responses[i].Hash != responses[0].Hash {
			t.Fatalf("goroutine %d got hash %q, want %q", i, responses[i].Hash, responses[0].Hash)
		}
	}
	// Coalescing guarantee: n identical concurrent requests run the
	// simulation at most a couple of times (one in-flight leader plus any
	// request that arrived after the leader finished but missed the LRU
	// window), never once per request.
	if m := s.misses.Load(); m == 0 || m > 3 {
		t.Fatalf("misses=%d for %d identical requests, want a small positive count", m, n)
	}
}

// TestWhatifDistinctPoliciesShareOneArena checks that different policies
// over the same workload return different hashes and results but reuse
// the compiled workload (observable only as correctness here; arena
// sharing itself is covered by the scenario package tests).
func TestWhatifDistinctPolicies(t *testing.T) {
	s := newServer(serverConfig{Workers: 2, CacheSize: 8})
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	_, dvfs, _ := postWhatif(t, ts, tinySpec)
	_, base, _ := postWhatif(t, ts, `{"workload": "CTC", "jobs": 300}`)
	if dvfs.Hash == base.Hash {
		t.Fatalf("baseline and DVFS specs produced the same hash %q", dvfs.Hash)
	}
	if !strings.HasPrefix(base.Policy, "fixed@") {
		t.Fatalf("baseline policy = %q, want a fixed top-gear policy", base.Policy)
	}
	if dvfs.Results.CompEnergy >= base.Results.CompEnergy {
		t.Fatalf("DVFS comp energy %g not below baseline %g",
			dvfs.Results.CompEnergy, base.Results.CompEnergy)
	}
}

// TestWhatifPowerCap checks a capped spec hashes apart from the uncapped
// one and carries the controller's tracking stats in the response.
func TestWhatifPowerCap(t *testing.T) {
	s := newServer(serverConfig{Workers: 2, CacheSize: 8})
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	capped := `{"workload": "CTC", "jobs": 300, "policy": {"bsld_thr": 2, "wq_thr": 4}, "controller": {"cap_frac": 0.6}}`
	_, free, _ := postWhatif(t, ts, tinySpec)
	status, cap, raw := postWhatif(t, ts, capped)
	if status != http.StatusOK {
		t.Fatalf("capped request: status %d\n%s", status, raw)
	}
	if cap.Hash == free.Hash {
		t.Fatalf("capped and uncapped specs produced the same hash %q", cap.Hash)
	}
	if free.PowerCap != nil {
		t.Fatalf("uncapped response carries cap stats: %+v", free.PowerCap)
	}
	if cap.PowerCap == nil {
		t.Fatalf("capped response missing power_cap stats:\n%s", raw)
	}
	if cap.PowerCap.Cap <= 0 || cap.PowerCap.AvgDraw <= 0 {
		t.Fatalf("implausible cap stats: %+v", cap.PowerCap)
	}

	// The cached answer keeps the stats.
	_, again, _ := postWhatif(t, ts, capped)
	if !again.Cached || again.PowerCap == nil || *again.PowerCap != *cap.PowerCap {
		t.Fatalf("cache hit lost cap stats: cached=%t %+v", again.Cached, again.PowerCap)
	}
}

func TestWhatifRejections(t *testing.T) {
	s := newServer(serverConfig{Workers: 1, CacheSize: 8, MaxJobs: 1000})
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	cases := []struct {
		name, body string
		status     int
		errSubstr  string
	}{
		{"empty workload", `{}`, http.StatusBadRequest, "workload is required"},
		{"unknown field", `{"workload": "CTC", "zap": 1}`, http.StatusBadRequest, "unknown field"},
		{"unknown preset", `{"workload": "Nope"}`, http.StatusBadRequest, "unknown workload"},
		{"swf disabled", `{"workload": "/etc/passwd.swf"}`, http.StatusForbidden, "-allow-swf"},
		{"over max jobs", `{"workload": "CTC", "jobs": 5000}`, http.StatusForbidden, "-max-jobs"},
		{"native length over max jobs", `{"workload": "CTC"}`, http.StatusForbidden, "-max-jobs"},
		{"bad beta", `{"workload": "CTC", "jobs": 300, "beta": 0}`, http.StatusBadRequest, "Beta"},
		{"unknown field in policy", `{"workload": "CTC", "jobs": 300, "policy": {"bsld_thr": 2, "wq": 4}}`, http.StatusBadRequest, "unknown field"},
		{"bad wq_thr", `{"workload": "CTC", "jobs": 300, "policy": {"bsld_thr": 2, "wq_thr": "never"}}`, http.StatusBadRequest, "wq_thr"},
		{"negative cpus", `{"workload": "CTC", "jobs": 50, "cpus": -5}`, http.StatusBadRequest, "machine size"},
		{"overflowing size factor", `{"workload": "CTC", "jobs": 50, "size_factor": 1e300}`, http.StatusBadRequest, "machine size"},
		{"negative jobs", `{"workload": "CTC", "jobs": -1}`, http.StatusBadRequest, "negative jobs"},
		{"negative swf_cpus", `{"workload": "CTC", "jobs": 50, "swf_cpus": -1}`, http.StatusBadRequest, "negative swf_cpus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/whatif", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (error %q)", resp.StatusCode, tc.status, e.Error)
			}
			if !strings.Contains(e.Error, tc.errSubstr) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.errSubstr)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/whatif")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/whatif: status %d, want 405", resp.StatusCode)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s := newServer(serverConfig{Workers: 2, CacheSize: 8})
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	postWhatif(t, ts, tinySpec)
	postWhatif(t, ts, tinySpec)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 || st.CacheEntries != 1 || st.Workers != 2 {
		t.Fatalf("stats %+v, want hits=1 misses=1 entries=1 workers=2", st)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}
}

// TestGracefulShutdownDrains verifies http.Server.Shutdown waits for an
// in-flight simulation to answer before returning.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newServer(serverConfig{Workers: 2, CacheSize: 8})
	srv := httptest.NewServer(s.mux())
	// Take over the underlying server so we can call Shutdown ourselves.
	inner := srv.Config

	type result struct {
		status int
		out    whatifResponse
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/whatif", "application/json",
			strings.NewReader(`{"workload": "SDSC", "jobs": 2000, "policy": {"bsld_thr": 2, "wq_thr": 2147483647}}`))
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
			resc <- result{}
			return
		}
		defer resp.Body.Close()
		var out whatifResponse
		json.NewDecoder(resp.Body).Decode(&out)
		resc <- result{resp.StatusCode, out}
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := inner.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	select {
	case r := <-resc:
		if t.Failed() {
			t.FailNow()
		}
		if r.status != http.StatusOK || r.out.Results.Jobs != 2000 {
			t.Fatalf("drained request: status %d results %+v", r.status, r.out.Results)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed after Shutdown returned")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", whatifResponse{Hash: "a"})
	c.Put("b", whatifResponse{Hash: "b"})
	if _, ok := c.Get("a"); !ok { // touch a → b is now LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("c", whatifResponse{Hash: "c"})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if v, ok := c.Get(k); !ok || v.Hash != k {
			t.Fatalf("entry %q missing or wrong after eviction", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}

	off := newResultCache(0)
	off.Put("a", whatifResponse{Hash: "a"})
	if _, ok := off.Get("a"); ok || off.Len() != 0 {
		t.Fatal("cap 0 cache stored an entry")
	}
}
