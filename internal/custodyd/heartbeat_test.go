package custodyd

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// hbServer boots a tickless server with an injected wall clock and the
// heartbeat reaper armed.
func hbServer(t *testing.T, dir string, now *time.Time) *Server {
	t.Helper()
	return newTestServer(t, dir, func(c *ServerConfig) {
		c.Clock = func() time.Time { return *now }
		c.HeartbeatTimeout = 5 * time.Second
		c.RoundBudget = time.Hour // keep the degraded-mode ladder out of the way
	})
}

// ownedExecs returns tenant 0's currently owned executor IDs.
func ownedExecs(t *testing.T, s *Server) []int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.svc.Snapshot()
	for _, ts := range snap.Tenants {
		if ts.Tenant == 0 {
			return ts.Execs
		}
	}
	return nil
}

// TestHeartbeatLivenessRevokesSilentExecutor pins the reaper contract with
// an injected clock: executors a tenant reports via /v1/heartbeat stay
// owned while the beats keep coming; once the tenant goes silent past
// HeartbeatTimeout, the next round commits revoke-exec ops that release
// the silent executors back to the pool.
func TestHeartbeatLivenessRevokesSilentExecutor(t *testing.T) {
	now := time.Unix(1000, 0)
	s := hbServer(t, t.TempDir(), &now)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 6; i++ {
		postJSON(t, client, ts.URL+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "Sort", "file": 1}, nil)
	}
	s.RoundOnce()
	s.RoundOnce()
	execs := ownedExecs(t, s)
	if len(execs) == 0 {
		t.Fatal("no executors owned mid-workload; cannot exercise liveness")
	}

	// Fresh beats keep everything alive: advance close to (but under) the
	// deadline between beats and no revocation may happen.
	var hb struct {
		Tracked int `json:"tracked"`
	}
	resp := postJSON(t, client, ts.URL+"/v1/heartbeat", map[string]any{"tenant": 0, "execs": execs}, &hb)
	if resp.StatusCode != 200 || hb.Tracked != len(execs) {
		t.Fatalf("heartbeat: status %d tracked %d, want %d", resp.StatusCode, hb.Tracked, len(execs))
	}
	now = now.Add(4 * time.Second)
	postJSON(t, client, ts.URL+"/v1/heartbeat", map[string]any{"tenant": 0, "execs": ownedExecs(t, s)}, nil)
	now = now.Add(4 * time.Second) // 8s since first beat, 4s since refresh
	s.RoundOnce()
	if st := getStatus(t, client, ts.URL); st.ExecsReaped != 0 {
		t.Fatalf("refreshed executors reaped: %+v", st)
	}

	// Silence: keep the workload flowing (so executors stay owned) but stop
	// beating. The reaper must commit at least one revocation that actually
	// releases an executor, and the released ID must leave the owned set.
	for i := 0; i < 40; i++ {
		tracked := ownedExecs(t, s)
		if len(tracked) > 0 {
			postJSON(t, client, ts.URL+"/v1/heartbeat", map[string]any{"tenant": 0, "execs": tracked}, nil)
			now = now.Add(6 * time.Second) // past the 5s deadline
			s.RoundOnce()
			s.mu.Lock()
			revoked := s.svc.ExecRevocations()
			s.mu.Unlock()
			if revoked > 0 {
				break
			}
		} else {
			s.RoundOnce()
		}
	}
	st := getStatus(t, client, ts.URL)
	if st.ExecsReaped == 0 {
		t.Fatal("silent executors never reaped")
	}
	s.mu.Lock()
	revoked := s.svc.ExecRevocations()
	ops := replayed(t, s.wal)
	s.mu.Unlock()
	if revoked == 0 {
		t.Fatal("revoke-exec ops committed but none released an executor")
	}
	revokeOps := 0
	for _, op := range ops {
		if op.Kind == OpRevokeExec {
			revokeOps++
		}
	}
	if revokeOps == 0 {
		t.Fatal("no revoke-exec ops in the intent log")
	}
	if st.LastError != "" {
		t.Fatalf("server retained error: %s", st.LastError)
	}
}

// reapOne submits six PageRank jobs for a fresh tenant and runs rounds,
// beating for the tenant's executors and then letting the clock pass the
// deadline, until the reaper has revoked at least one executor.
func reapOne(t *testing.T, s *Server, client *http.Client, base string, now *time.Time) {
	t.Helper()
	postJSON(t, client, base+"/v1/register-app", map[string]string{"name": "a"}, nil)
	for i := 0; i < 6; i++ {
		postJSON(t, client, base+"/v1/submit-job", map[string]any{"tenant": 0, "workload": "PageRank", "file": 0}, nil)
	}
	for i := 0; i < 40; i++ {
		s.RoundOnce()
		if tracked := ownedExecs(t, s); len(tracked) > 0 {
			postJSON(t, client, base+"/v1/heartbeat", map[string]any{"tenant": 0, "execs": tracked}, nil)
			*now = now.Add(6 * time.Second)
			s.RoundOnce()
		}
		s.mu.Lock()
		revoked := s.svc.ExecRevocations()
		s.mu.Unlock()
		if revoked > 0 {
			return
		}
	}
	t.Fatal("no executor revoked; the case needs one")
}

// TestHeartbeatRevocationSurvivesCrash is the daemon-side chaos case:
// revoke a silent executor, kill -9 the daemon (no flush, no checkpoint),
// and require the recovered incarnation — which replays the revoke-exec
// ops from the intent log with no clock and no heartbeat history — to land
// on the pre-kill digest and finish the workload with a clean audit.
func TestHeartbeatRevocationSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(2000, 0)
	s := hbServer(t, dir, &now)
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	reapOne(t, s, client, ts.URL, &now)
	pre := getStatus(t, client, ts.URL)
	ts.Close()
	s.Abort()

	s2 := newTestServer(t, dir, nil) // recovery: no clock, no heartbeat state
	if boot := s2.Boot(); !boot.Recovered || boot.ReplayedOps == 0 {
		t.Fatalf("boot info %+v: want recovery", boot)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	post := getStatus(t, ts2.Client(), ts2.URL)
	if post.Digest != pre.Digest || post.Seq != pre.Seq {
		t.Fatalf("recovered digest %s (seq %d) != pre-kill %s (seq %d)", post.Digest, post.Seq, pre.Digest, pre.Seq)
	}
	for i := 0; i < 400 && !getStatus(t, ts2.Client(), ts2.URL).Idle; i++ {
		s2.RoundOnce()
	}
	final := getStatus(t, ts2.Client(), ts2.URL)
	if !final.Idle || final.JobsFinished != 6 {
		t.Fatalf("recovered run did not finish: %+v", final)
	}
	s2.mu.Lock()
	err := s2.svc.Driver().Audit()
	s2.mu.Unlock()
	if err != nil {
		t.Fatalf("audit after recovered run: %v", err)
	}
}

// TestReapedCountSurvivesKill9 pins that the reaped-executor count counts
// logged revoke-exec ops from genesis: after a reap, an Abort and a reboot
// with no clock and no heartbeat history, /v1/status execs_reaped and
// custody_execs_reaped_total equal their pre-kill values.
func TestReapedCountSurvivesKill9(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(3000, 0)
	s := hbServer(t, dir, &now)
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()
	reapOne(t, s, client, ts.URL, &now)
	pre := getStatus(t, client, ts.URL)
	preMetric := scrapeCounters(t, client, ts.URL)["custody_execs_reaped_total"]
	ts.Close()
	s.Abort()
	if pre.ExecsReaped == 0 || preMetric != float64(pre.ExecsReaped) {
		t.Fatalf("before the kill: execs_reaped %d, custody_execs_reaped_total %v", pre.ExecsReaped, preMetric)
	}

	s2 := newTestServer(t, dir, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if post := getStatus(t, ts2.Client(), ts2.URL); post.ExecsReaped != pre.ExecsReaped {
		t.Fatalf("execs_reaped %d after recovery, %d before the kill", post.ExecsReaped, pre.ExecsReaped)
	}
	if got := scrapeCounters(t, ts2.Client(), ts2.URL)["custody_execs_reaped_total"]; got != preMetric {
		t.Fatalf("custody_execs_reaped_total %v after recovery, %v before the kill", got, preMetric)
	}
}
