package custodyd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer boots a tickless server (rounds driven by RoundOnce) over
// a fresh state dir; mutate tweaks the config before boot.
func newTestServer(t *testing.T, dir string, mutate func(*ServerConfig)) *Server {
	t.Helper()
	cfg := ServerConfig{Service: testConfig(), Dir: dir}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, client *http.Client, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func getStatus(t *testing.T, client *http.Client, base string) statusResponse {
	t.Helper()
	resp, err := client.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestServerHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var reg struct {
		Tenant int `json:"tenant"`
	}
	resp := postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "alice"}, &reg)
	if resp.StatusCode != http.StatusOK || reg.Tenant != 0 {
		t.Fatalf("register: status %d tenant %d", resp.StatusCode, reg.Tenant)
	}
	for i := 0; i < 3; i++ {
		resp := postJSON(t, client, ts.URL+"/v1/submit-job",
			map[string]any{"tenant": 0, "workload": "WordCount", "file": 0}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	// Bad submissions are rejected up front with 400, not committed.
	resp = postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "Bogus"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid workload: status %d, want 400", resp.StatusCode)
	}

	var st statusResponse
	for i := 0; i < 200; i++ {
		s.RoundOnce()
		if st = getStatus(t, client, ts.URL); st.Idle && st.Queued == 0 && st.JobsFinished == 3 {
			break
		}
	}
	if !st.Idle || st.JobsFinished != 3 || st.Accepted != 3 {
		t.Fatalf("final status: %+v", st)
	}

	var hb struct {
		Pending *int `json:"pending"`
		Done    int  `json:"done"`
	}
	resp = postJSON(t, client, ts.URL+"/v1/heartbeat", map[string]int{"tenant": 0}, &hb)
	if resp.StatusCode != http.StatusOK || hb.Pending == nil || hb.Done != 3 {
		t.Fatalf("heartbeat: status %d body %+v", resp.StatusCode, hb)
	}

	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	exposition := page.String()
	if !strings.HasSuffix(exposition, "# EOF\n") {
		t.Fatalf("metrics page not EOF-terminated:\n%s", exposition)
	}
	if n := strings.Count(exposition, "# EOF"); n != 1 {
		t.Fatalf("metrics page has %d EOF markers, want exactly 1", n)
	}
	for _, want := range []string{"custody_decisions_total", "custody_queue_depth 0", "custody_submissions_accepted_total 3"} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, exposition)
		}
	}
}

// TestMetricsConcurrentScrapes hammers /metrics from many goroutines while
// rounds run: every scrape must be one complete exposition with exactly
// one "# EOF" (satellite: live OpenMetrics endpoint).
func TestMetricsConcurrentScrapes(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 4; i++ {
		postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "Sort", "file": 1}, nil)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := client.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				var b bytes.Buffer
				_, err = b.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if n := strings.Count(b.String(), "# EOF"); n != 1 || !strings.HasSuffix(b.String(), "# EOF\n") {
					errs <- fmt.Errorf("scrape saw %d EOF markers", n)
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		s.RoundOnce()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOverloadShedsBounded drives submissions at far beyond the
// sustainable rate (no rounds run at all while the burst lands): admission
// must shed with 429 + Retry-After once a tenant has QueueCap unfinished
// jobs, no tenant may ever exceed that bound, and the accepted subset must
// still finish with a clean audit (acceptance criterion).
func TestOverloadShedsBounded(t *testing.T) {
	const queueCap = 4
	s := newTestServer(t, t.TempDir(), func(c *ServerConfig) {
		c.QueueCap = queueCap
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "b"}, nil)

	accepted, shed := 0, 0
	for i := 0; i < 60; i++ { // far beyond 2 tenants × QueueCap
		tenant := i % 2
		var body struct {
			Queued int `json:"queued"`
		}
		resp := postJSON(t, client, ts.URL+"/v1/submit-job",
			map[string]any{"tenant": tenant, "workload": "WordCount", "file": 0}, &body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
			if body.Queued < 1 || body.Queued > queueCap {
				t.Fatalf("submit %d: 202 reports queued=%d, want 1..%d", i, body.Queued, queueCap)
			}
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed++
		default:
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		// Each tenant's unfinished jobs stay bounded the whole time.
		s.mu.Lock()
		out := s.svc.Outstanding(tenant)
		s.mu.Unlock()
		if out > queueCap {
			t.Fatalf("tenant %d has %d unfinished jobs > cap %d", tenant, out, queueCap)
		}
	}
	if accepted != 2*queueCap || shed != 60-accepted {
		t.Fatalf("accepted=%d shed=%d: want each tenant admitted up to its cap of %d", accepted, shed, queueCap)
	}
	if st := getStatus(t, client, ts.URL); st.Queued != accepted {
		t.Fatalf("status queued=%d, want the %d accepted, unfinished jobs", st.Queued, accepted)
	}

	// A request whose budget is shorter than one round interval is shed
	// even though its tenant has room (deadline admission); one that
	// covers the interval is admitted.
	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "c"}, nil)
	resp := postJSON(t, client, ts.URL+"/v1/submit-job",
		map[string]any{"tenant": 2, "workload": "WordCount", "file": 0, "budget_ms": 1}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("budget-exceeded submission: status %d, want 429", resp.StatusCode)
	}
	resp = postJSON(t, client, ts.URL+"/v1/submit-job",
		map[string]any{"tenant": 2, "workload": "WordCount", "file": 0, "budget_ms": 100}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission whose budget covers one round: status %d, want 202", resp.StatusCode)
	}
	accepted++

	var st statusResponse
	for i := 0; i < 300; i++ {
		s.RoundOnce()
		if st = getStatus(t, client, ts.URL); st.Idle && st.Queued == 0 {
			break
		}
	}
	if !st.Idle || st.JobsFinished != accepted {
		t.Fatalf("accepted subset did not finish: %+v (accepted %d)", st, accepted)
	}
	s.mu.Lock()
	err := s.svc.Driver().Audit()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("audit after overload run: %v", err)
	}
	if st.LastError != "" {
		t.Fatalf("server retained error: %s", st.LastError)
	}
}

// TestGracefulShutdownDrains covers the SIGTERM path (cmd/custodyd wires
// SIGTERM to Shutdown): with a round in flight and committed jobs still
// unfinished, Shutdown must complete the work, flush the JSONL/CSV sinks,
// write the metrics exposition, and leave a loadable checkpoint whose
// digest matches a fresh replay of the intent log.
func TestGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	tick := make(chan time.Time)
	s := newTestServer(t, dir, func(c *ServerConfig) {
		c.Tick = tick
		c.LogJSONL = true
		c.LogCSV = true
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 5; i++ {
		postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "Sort", "file": 1}, nil)
	}
	tick <- time.Time{} // one in-flight round, jobs still unfinished

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	st := getStatus(t, client, ts.URL)
	if !st.Idle || st.JobsFinished != 5 || st.Queued != 0 {
		t.Fatalf("post-shutdown status: %+v", st)
	}

	for _, name := range []string{"obsv.jsonl", "obsv.csv", metricsFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(data) == 0 {
			t.Fatalf("sink %s not flushed: err=%v len=%d", name, err, len(data))
		}
	}
	om, err := os.ReadFile(filepath.Join(dir, metricsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(om), "# EOF\n") || strings.Count(string(om), "# EOF") != 1 {
		t.Fatalf("final exposition malformed:\n%s", om)
	}

	cp, err := LoadCheckpoint(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatalf("final checkpoint not loadable: %v", err)
	}
	if !cp.Snapshot.Idle || cp.Snapshot.JobsFinished != 5 {
		t.Fatalf("final checkpoint snapshot: %+v", cp.Snapshot)
	}
	svc2, wal2, info, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if !info.CheckpointVerified {
		t.Fatalf("boot info %+v: checkpoint not verified", info)
	}
	if got := svc2.Digest(); got != cp.Snapshot.Digest {
		t.Fatalf("replay digest %s != checkpoint digest %s", got, cp.Snapshot.Digest)
	}
}

// TestKill9ReplayRecoversDigest is the sibling crash test: Abort the
// server mid-workload with no flushing or checkpointing (kill -9), reopen
// the state dir, and require the recovered digest to equal the digest
// published just before the kill.
func TestKill9ReplayRecoversDigest(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil) // tickless: rounds driven manually so the crash point is exact
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 4; i++ {
		postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "PageRank", "file": 0}, nil)
	}
	for i := 0; i < 6; i++ {
		s.RoundOnce() // mid-workload: jobs still running
	}
	pre := getStatus(t, client, ts.URL)
	ts.Close()
	s.Abort()

	s2 := newTestServer(t, dir, nil)
	if boot := s2.Boot(); !boot.Recovered || boot.ReplayedOps == 0 {
		t.Fatalf("boot info %+v: want recovery", boot)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	post := getStatus(t, ts2.Client(), ts2.URL)
	if post.Digest != pre.Digest || post.Seq != pre.Seq {
		t.Fatalf("recovered digest %s (seq %d) != pre-kill digest %s (seq %d)", post.Digest, post.Seq, pre.Digest, pre.Seq)
	}
	// The recovered incarnation finishes the workload cleanly.
	for i := 0; i < 300 && !getStatus(t, ts2.Client(), ts2.URL).Idle; i++ {
		s2.RoundOnce()
	}
	final := getStatus(t, ts2.Client(), ts2.URL)
	if !final.Idle || final.JobsFinished != 4 {
		t.Fatalf("recovered run did not finish: %+v", final)
	}
}

// TestMetricsCountersSurviveKill9 pins that the provenance counters on
// /metrics count from genesis, like every collector counter: after an
// Abort mid-workload and a replay, the decision and grant totals equal the
// values published just before the kill.
func TestMetricsCountersSurviveKill9(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 4; i++ {
		postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "PageRank", "file": 0}, nil)
	}
	for i := 0; i < 6; i++ {
		s.RoundOnce()
	}
	pre := scrapeCounters(t, client, ts.URL)
	ts.Close()
	s.Abort()
	if pre["custody_decisions_total"] == 0 || pre["custody_grants_total"] == 0 {
		t.Fatalf("no provenance before the kill: %v", pre)
	}

	s2 := newTestServer(t, dir, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	post := scrapeCounters(t, ts2.Client(), ts2.URL)
	for _, name := range []string{"custody_decisions_total", "custody_grants_total", "custody_rounds"} {
		if post[name] != pre[name] {
			t.Errorf("%s = %v after recovery, %v before the kill", name, post[name], pre[name])
		}
	}
}

// TestAcceptedCountSurvivesKill9 pins that the accepted-submission count
// counts logged ops from genesis: four 202s, an Abort and a reboot leave
// /v1/status accepted and custody_submissions_accepted_total at 4.
func TestAcceptedCountSurvivesKill9(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 4; i++ {
		resp := postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "PageRank", "file": 0}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	if st := getStatus(t, client, ts.URL); st.Accepted != 4 {
		t.Fatalf("accepted %d before the kill, want 4", st.Accepted)
	}
	ts.Close()
	s.Abort()

	s2 := newTestServer(t, dir, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if st := getStatus(t, ts2.Client(), ts2.URL); st.Accepted != 4 {
		t.Fatalf("accepted %d after recovery, want 4", st.Accepted)
	}
	if got := scrapeCounters(t, ts2.Client(), ts2.URL)["custody_submissions_accepted_total"]; got != 4 {
		t.Fatalf("custody_submissions_accepted_total %v after recovery, want 4", got)
	}
}

// scrapeCounters fetches /metrics and returns its unlabeled samples by
// name.
func scrapeCounters(t *testing.T, client *http.Client, base string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(page.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestAcceptedSubmissionSurvivesKill9 pins that a 202 is durable: a job
// acknowledged but never touched by a round must survive kill -9, show up
// in the recovered state, and finish once the new incarnation runs rounds.
func TestAcceptedSubmissionSurvivesKill9(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	resp := postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "Sort", "file": 1}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	ts.Close()
	s.Abort() // no round ever ran

	s2 := newTestServer(t, dir, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if st := getStatus(t, ts2.Client(), ts2.URL); st.JobsSubmitted != 1 || st.Queued != 1 {
		t.Fatalf("recovered status: jobs_submitted=%d queued=%d, want the acknowledged job", st.JobsSubmitted, st.Queued)
	}
	for i := 0; i < 300 && !getStatus(t, ts2.Client(), ts2.URL).Idle; i++ {
		s2.RoundOnce()
	}
	if st := getStatus(t, ts2.Client(), ts2.URL); !st.Idle || st.JobsFinished != 1 {
		t.Fatalf("recovered job did not finish: %+v", st)
	}
}

// TestDegradedModeLadder drives the ladder with an injected clock: two
// consecutive over-budget rounds trip degraded mode (rounds stop forcing
// Reallocate and cover a coarser step, recorded in the op log), three fast
// rounds restore it, and every transition is visible in provenance.
func TestDegradedModeLadder(t *testing.T) {
	dir := t.TempDir()
	var now time.Time
	var slow bool
	clock := func() time.Time {
		if slow {
			now = now.Add(60 * time.Millisecond) // every call advances: rounds measure 60ms > 50ms budget
		}
		return now
	}
	s := newTestServer(t, dir, func(c *ServerConfig) {
		c.Clock = clock
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 8; i++ {
		postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "WordCount", "file": 0}, nil)
	}

	slow = true
	s.RoundOnce()
	if getStatus(t, client, ts.URL).Degraded {
		t.Fatal("degraded after one slow round; ladder needs two")
	}
	s.RoundOnce()
	st := getStatus(t, client, ts.URL)
	if !st.Degraded || st.ModeChanges != 1 {
		t.Fatalf("after two slow rounds: %+v", st)
	}
	s.RoundOnce() // one degraded round while still slow
	slow = false
	for i := 0; i < 3; i++ {
		s.RoundOnce()
	}
	st = getStatus(t, client, ts.URL)
	if st.Degraded || st.ModeChanges != 2 {
		t.Fatalf("after three fast rounds: %+v", st)
	}
	if st.DegradedRounds == 0 {
		t.Fatal("no degraded rounds recorded")
	}

	// The mode transitions are provenance: the Hub counted both, and the
	// op log records which rounds ran degraded (replay follows the log,
	// not the clock).
	if n := s.svc.Hub().Counts().ModeChanges; n != 2 {
		t.Fatalf("hub counted %d mode changes, want 2", n)
	}
	s.mu.Lock()
	ops := replayed(t, s.wal)
	s.mu.Unlock()
	degradedOps := 0
	for _, op := range ops {
		if op.Kind == OpRound && op.Degraded {
			degradedOps++
			if op.Step != roundSimStep*degradedStepFactor {
				t.Fatalf("degraded round step %v, want coarser %v", op.Step, roundSimStep*degradedStepFactor)
			}
		}
	}
	if degradedOps == 0 {
		t.Fatal("no degraded round ops in the intent log")
	}
}

// TestBrokenServiceRefusesWork pins fail-stop at the HTTP edge. Once a
// journal append fails, nothing more can be made durable: the write whose
// append failed answers 500, both write endpoints then answer 503 with the
// broken error, /v1/status must report it in a field later errors cannot
// overwrite, and /metrics must raise custody_broken. It runs once with a
// registration and once with a submission as the failing write.
func TestBrokenServiceRefusesWork(t *testing.T) {
	for _, failing := range []struct {
		name, path string
		body       any
	}{
		{"register", "/v1/register-app", map[string]string{"name": "bob"}},
		{"submit", "/v1/submit-job", map[string]any{"tenant": 0, "workload": "Sort", "file": 1}},
	} {
		t.Run(failing.name, func(t *testing.T) {
			s := newTestServer(t, t.TempDir(), nil)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			client := ts.Client()

			if resp := postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "alice"}, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("register on a healthy service: status %d", resp.StatusCode)
			}
			// Close the intent log's file under the server: the next append fails.
			s.mu.Lock()
			if err := s.wal.Close(); err != nil {
				t.Fatal(err)
			}
			s.mu.Unlock()
			if resp := postJSON(t, client, ts.URL+failing.path, failing.body, nil); resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("%s whose append fails: status %d, want 500", failing.name, resp.StatusCode)
			}

			var apiErr apiError
			resp := postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "Sort", "file": 1}, &apiErr)
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(apiErr.Error, "journal append") {
				t.Fatalf("submit to a broken service: status %d error %q, want 503 with the broken error", resp.StatusCode, apiErr.Error)
			}
			resp = postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "carol"}, &apiErr)
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(apiErr.Error, "journal append") {
				t.Fatalf("register on a broken service: status %d error %q, want 503 with the broken error", resp.StatusCode, apiErr.Error)
			}
			s.RoundOnce()
			st := getStatus(t, client, ts.URL)
			if !strings.Contains(st.Broken, "journal append") || st.Accepted != 0 {
				t.Fatalf("status of a broken service: broken %q accepted %d", st.Broken, st.Accepted)
			}
			mresp, err := client.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var page bytes.Buffer
			_, err = page.ReadFrom(mresp.Body)
			mresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(page.String(), "\ncustody_broken 1\n") {
				t.Fatalf("/metrics does not raise custody_broken:\n%s", page.String())
			}

			// The drain's own failures (closing the already-closed log) land in
			// last_error; the broken field must still name the first failure.
			if err := s.Shutdown(context.Background()); err == nil {
				t.Fatal("shutdown of a broken service reported no error")
			}
			st = getStatus(t, client, ts.URL)
			if !strings.Contains(st.Broken, "journal append") || st.LastError == st.Broken {
				t.Fatalf("after shutdown: broken %q last_error %q", st.Broken, st.LastError)
			}
		})
	}
}
