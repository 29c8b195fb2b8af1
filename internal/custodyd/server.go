package custodyd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obsv"
)

// ServerConfig shapes the concurrent edge around a Service.
type ServerConfig struct {
	// Service configures the deterministic core; Dir is the state
	// directory (intent log, checkpoint, shutdown metrics exposition, and
	// any file sinks).
	Service Config
	Dir     string

	// QueueCap is admission control: the per-tenant bound on accepted but
	// unfinished jobs (submitted minus finished). Beyond it, submissions
	// are shed with 429.
	QueueCap int

	// CheckpointEvery is the number of rounds between checkpoints.
	CheckpointEvery int

	// RoundBudget is the wall-clock budget per round: two consecutive
	// overruns trip degraded mode, three consecutive fast rounds restore
	// normal mode. Ignored when Clock is nil.
	RoundBudget time.Duration

	// RoundInterval is the expected pacing of Tick. A committed job takes
	// part in the next round, so this is the wait estimate behind
	// Retry-After headers and request budgets.
	RoundInterval time.Duration

	// HeartbeatTimeout is the executor liveness deadline: an executor that
	// a tenant has reported via /v1/heartbeat and then stayed silent about
	// for this long is revoked (a committed revoke-exec op releases it back
	// to the pool) at the next round. Zero disables the reaper; it also
	// requires Clock, since liveness is a wall-clock judgement.
	HeartbeatTimeout time.Duration

	// Clock supplies wall time and Tick paces rounds; both are injected
	// from the cmd/ edge so internal code stays clock-free. A nil Clock
	// disables the degraded-mode ladder; a nil Tick means rounds run only
	// on submission wakeups (and explicit RoundOnce calls in tests).
	Clock func() time.Time
	Tick  <-chan time.Time

	// LogJSONL / LogCSV attach file sinks (obsv.jsonl / obsv.csv in Dir,
	// truncated per boot: sinks attach after replay, so each incarnation's
	// artifacts cover exactly its own live traffic).
	LogJSONL bool
	LogCSV   bool
}

// fill applies defaults to zero fields.
func (c *ServerConfig) fill() {
	c.Service.fill()
	if c.QueueCap == 0 {
		c.QueueCap = 16
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	}
	if c.RoundBudget == 0 {
		c.RoundBudget = 50 * time.Millisecond
	}
	if c.RoundInterval == 0 {
		c.RoundInterval = 100 * time.Millisecond
	}
}

// Server is the concurrent edge: HTTP handlers and the round loop share
// the Service behind one mutex. The loop goroutine is the only spawner;
// handlers never touch the driver stack without mu held.
type Server struct {
	cfg ServerConfig

	stop  chan struct{}
	abort chan struct{}
	wake  chan struct{}
	done  chan struct{}

	stopOnce  sync.Once
	abortOnce sync.Once

	mu sync.Mutex
	//custody:guardedby mu
	svc *Service
	//custody:guardedby mu
	wal *WAL
	//custody:guardedby mu
	boot BootInfo
	//custody:guardedby mu
	accepted int
	//custody:guardedby mu
	shed int
	//custody:guardedby mu
	degraded bool
	//custody:guardedby mu
	slowRounds int
	//custody:guardedby mu
	fastRounds int
	//custody:guardedby mu
	sinceCkpt int
	//custody:guardedby mu
	lastBeat map[int]time.Time
	//custody:guardedby mu
	reaped int
	//custody:guardedby mu
	lastErr error
	//custody:guardedby mu
	snap Snapshot
	//custody:guardedby mu
	metricsPage []byte
	//custody:guardedby mu
	draining bool
	//custody:guardedby mu
	closed bool
	//custody:guardedby mu
	started bool
}

// NewServer boots (or recovers) the service from cfg.Dir and wires the
// provenance sinks. Call Start to run the round loop, Handler for the
// HTTP API, and Shutdown for a graceful drain.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg.fill()
	svc, wal, boot, err := Open(cfg.Dir, cfg.Service)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		stop:  make(chan struct{}),
		abort: make(chan struct{}),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	// Sinks attach only now, after Open's replay: recovery must not
	// re-emit historical records into this incarnation's artifacts. The
	// Hub's tallies did see the replay, so /metrics counts from genesis.
	if cfg.LogJSONL {
		f, err := os.Create(filepath.Join(cfg.Dir, "obsv.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("custodyd: jsonl sink: %w", err)
		}
		svc.Hub().AddSink(obsv.NewJSONLSink(f))
	}
	if cfg.LogCSV {
		f, err := os.Create(filepath.Join(cfg.Dir, "obsv.csv"))
		if err != nil {
			return nil, fmt.Errorf("custodyd: csv sink: %w", err)
		}
		svc.Hub().AddSink(obsv.NewCSVSink(f))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.svc = svc
	s.wal = wal
	s.boot = boot
	s.lastBeat = make(map[int]time.Time)
	s.publishLocked()
	return s, nil
}

// Boot reports what recovery found.
func (s *Server) Boot() BootInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boot
}

// Start launches the round loop.
func (s *Server) Start() {
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	go s.loop()
}

// loop serializes rounds: ticks and submission wakeups both funnel into
// RoundOnce, SIGTERM-driven Shutdown closes stop (graceful finalize), and
// Abort (the in-process stand-in for kill -9) exits without any cleanup.
func (s *Server) loop() {
	for {
		select {
		case <-s.abort:
			close(s.done)
			return
		case <-s.stop:
			s.finalize()
			close(s.done)
			return
		case <-s.cfg.Tick:
			s.RoundOnce()
		case <-s.wake:
			s.RoundOnce()
		}
	}
}

// RoundOnce runs one allocation round (also the test hook for tickless
// deterministic servers).
func (s *Server) RoundOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roundLocked()
}

// roundLocked runs a round unless every committed job has finished, walks
// the degraded-mode ladder, checkpoints on schedule, and republishes the
// status snapshot and metrics page.
// Skipping ops entirely when idle keeps the digest stable across idle
// periods — what lets a crash/restart cycle be compared digest-for-digest.
//
//custody:holds mu
func (s *Server) roundLocked() {
	if s.closed || s.svc.Broken() != nil {
		return
	}
	if s.cfg.Clock != nil && s.cfg.HeartbeatTimeout > 0 {
		s.reapSilentLocked(s.cfg.Clock())
	}
	var start time.Time
	if s.cfg.Clock != nil {
		start = s.cfg.Clock()
	}
	if !s.svc.Idle() {
		step := roundSimStep
		if s.degraded {
			step *= degradedStepFactor
		}
		if err := s.svc.Round(step, s.degraded); err != nil {
			s.lastErr = err
		}
		s.sinceCkpt++
	}
	if s.cfg.Clock != nil {
		s.ladderLocked(s.cfg.Clock().Sub(start))
	}
	if s.sinceCkpt >= s.cfg.CheckpointEvery {
		s.checkpointLocked()
	}
	s.publishLocked()
}

// ladderLocked walks the degraded-mode ladder on the measured round wall
// time. Transitions are tapped into provenance (Hub.Mode) so overload
// shows up in the same artifacts as the decisions it coarsens.
//
//custody:holds mu
func (s *Server) ladderLocked(d time.Duration) {
	if d > s.cfg.RoundBudget {
		s.slowRounds++
		s.fastRounds = 0
		if !s.degraded && s.slowRounds >= 2 {
			s.degraded = true
			s.svc.Hub().Mode(true, fmt.Sprintf("%d consecutive rounds over the %v budget", s.slowRounds, s.cfg.RoundBudget))
		}
		return
	}
	s.fastRounds++
	s.slowRounds = 0
	if s.degraded && s.fastRounds >= 3 {
		s.degraded = false
		s.svc.Hub().Mode(false, fmt.Sprintf("%d consecutive rounds within the %v budget", s.fastRounds, s.cfg.RoundBudget))
	}
}

// reapSilentLocked revokes every tracked executor whose last heartbeat is
// older than the deadline. Executors the normal flow already returned to
// the pool are dropped from tracking without an op — only a still-owned
// silent executor is worth a committed revocation. Candidates are revoked
// in ascending ID order so the intent log (and therefore replay) does not
// depend on map iteration order.
//
//custody:holds mu
func (s *Server) reapSilentLocked(now time.Time) {
	var silent []int
	for id, last := range s.lastBeat {
		if !s.svc.ExecOwned(id) {
			delete(s.lastBeat, id)
			continue
		}
		if now.Sub(last) >= s.cfg.HeartbeatTimeout {
			silent = append(silent, id)
		}
	}
	sort.Ints(silent)
	for _, id := range silent {
		delete(s.lastBeat, id)
		if err := s.svc.RevokeExec(id); err != nil {
			s.lastErr = err
			continue
		}
		s.reaped++
	}
}

//custody:holds mu
func (s *Server) checkpointLocked() {
	s.sinceCkpt = 0
	if err := WriteCheckpoint(filepath.Join(s.cfg.Dir, checkpointFile), CheckpointFrom(s.svc)); err != nil {
		s.lastErr = err
	}
}

// publishLocked refreshes the cached status snapshot and the /metrics
// page. The page is rendered once per round into a byte slice served
// whole, so concurrent scrapes each get one complete exposition with
// exactly one "# EOF" terminator.
//
//custody:holds mu
func (s *Server) publishLocked() {
	s.snap = s.svc.Snapshot()
	var buf bytes.Buffer
	degraded, broken := 0.0, 0.0
	if s.degraded {
		degraded = 1
	}
	if s.svc.Broken() != nil {
		broken = 1
	}
	extras := []obsv.Metric{
		{Name: "custody_queue_depth", Help: "accepted jobs not yet finished", Kind: "gauge", Val: float64(s.snap.JobsSubmitted - s.snap.JobsFinished)},
		{Name: "custody_submissions_accepted", Help: "submissions committed to the intent log", Kind: "counter", Val: float64(s.accepted)},
		{Name: "custody_submissions_shed", Help: "submissions refused with 429", Kind: "counter", Val: float64(s.shed)},
		{Name: "custody_degraded_mode", Help: "1 while the degraded-mode ladder is tripped", Kind: "gauge", Val: degraded},
		{Name: "custody_wal_seq", Help: "last committed intent-log sequence number", Kind: "gauge", Val: float64(s.svc.Seq())},
		{Name: "custody_execs_reaped", Help: "executors revoked for missing the heartbeat deadline", Kind: "counter", Val: float64(s.reaped)},
		{Name: "custody_broken", Help: "1 once a failed commit has stopped the service", Kind: "gauge", Val: broken},
	}
	if err := obsv.RenderOpenMetrics(&buf, s.svc.Driver().Collector(), s.svc.Hub().Flight, s.svc.Hub().Counts(), extras...); err != nil {
		s.lastErr = err
		return
	}
	s.metricsPage = buf.Bytes()
}

// finalize is the graceful path: run the engine dry, so every committed
// job finishes, write the final checkpoint and metrics exposition, and flush
// and close the sinks and the intent log.
func (s *Server) finalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	if err := s.svc.Drain(); err != nil {
		s.lastErr = err
	}
	s.checkpointLocked()
	s.publishLocked()
	if err := os.WriteFile(filepath.Join(s.cfg.Dir, metricsFile), s.metricsPage, 0o644); err != nil {
		s.lastErr = err
	}
	if err := s.svc.Hub().Close(); err != nil {
		s.lastErr = err
	}
	if err := s.wal.Close(); err != nil {
		s.lastErr = err
	}
	s.closed = true
}

// Shutdown drains gracefully: in-flight work completes, sinks flush, and a
// final checkpoint lands before the round loop exits. Safe to call more
// than once; respects ctx for the drain's duration.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.mu.Unlock()
	if !started {
		s.stopOnce.Do(s.finalize)
		return s.Err()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.Err()
}

// Abort kills the round loop without any draining, flushing, or
// checkpointing — the in-process equivalent of kill -9, used by crash
// tests. State on disk is whatever the write-ahead log already holds.
func (s *Server) Abort() {
	s.mu.Lock()
	started := s.started
	s.closed = true
	s.mu.Unlock()
	s.abortOnce.Do(func() { close(s.abort) })
	if started {
		<-s.done
	}
}

// Err returns the first retained failure (round commits, checkpoint
// writes, sink flushes), if any.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastErr != nil {
		return s.lastErr
	}
	return s.svc.Hub().Err()
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //custody:ignore errdrop a response-write failure means the client went away; nothing to do server-side
}

// Handler returns the versioned HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register-app", s.handleRegister)
	mux.HandleFunc("POST /v1/submit-job", s.handleSubmit)
	mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// refuseLocked answers 503 when the service cannot take new work: it is
// draining, or a failed commit broke it, so nothing more can be made
// durable. It reports whether it answered.
//
//custody:holds mu
func (s *Server) refuseLocked(w http.ResponseWriter) bool {
	if err := s.svc.Broken(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return true
	}
	if s.draining || s.closed {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining"})
		return true
	}
	return false
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuseLocked(w) {
		return
	}
	tenant, err := s.svc.Register(req.Name)
	switch {
	case errors.Is(err, ErrTenantQuota):
		writeJSON(w, http.StatusForbidden, apiError{Error: err.Error()})
		return
	case err != nil:
		// A failed commit may have broken the service; the round loop
		// stops publishing then, so the /metrics page is refreshed here.
		s.publishLocked()
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant   int    `json:"tenant"`
		Workload string `json:"workload"`
		File     int    `json:"file"`
		BudgetMS int    `json:"budget_ms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuseLocked(w) {
		return
	}
	if err := s.svc.ValidateSubmit(req.Tenant, req.Workload, req.File); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	waitMS, retryAfter := s.roundWait()
	switch {
	case s.svc.Outstanding(req.Tenant) >= s.cfg.QueueCap:
		s.shed++
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "tenant has too many unfinished jobs; retry later"})
		return
	case req.BudgetMS > 0 && req.BudgetMS < waitMS:
		s.shed++
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests,
			apiError{Error: fmt.Sprintf("estimated wait %dms exceeds the request budget %dms", waitMS, req.BudgetMS)})
		return
	}
	// The 202 promises durability: the job is in the intent log before the
	// client hears about it, so a crash after this point cannot lose it.
	if _, err := s.svc.Submit(req.Tenant, req.Workload, req.File); err != nil {
		// As in handleRegister: the failed commit may have broken the
		// service, so refresh the /metrics page here.
		s.publishLocked()
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	s.accepted++
	select {
	case s.wake <- struct{}{}:
	default:
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"queued":            s.svc.Outstanding(req.Tenant),
		"estimated_wait_ms": waitMS,
	})
}

// roundWait estimates how long a committed job waits for its round: one
// round interval, since every committed job takes part in the next round.
// It returns the wait in milliseconds and as a Retry-After header value in
// whole seconds, at least 1.
func (s *Server) roundWait() (ms int, retryAfter string) {
	ms = int(s.cfg.RoundInterval / time.Millisecond)
	return ms, fmt.Sprintf("%d", max(1, int(s.cfg.RoundInterval/time.Second)))
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant int   `json:"tenant"`
		Execs  []int `json:"execs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Tenant < 0 || req.Tenant >= s.svc.Tenants() {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown tenant %d", req.Tenant)})
		return
	}
	// Reported executor IDs drive liveness: each one the tenant actually
	// owns refreshes its deadline. Only meaningful with a wall clock.
	tracked := 0
	if s.cfg.Clock != nil {
		now := s.cfg.Clock()
		for _, id := range req.Execs {
			if s.svc.OwnsExec(req.Tenant, id) {
				s.lastBeat[id] = now
				tracked++
			}
		}
	}
	resp := map[string]any{
		"sim_time": s.snap.SimTime,
		"degraded": s.degraded,
		"seq":      s.snap.Seq,
		"tracked":  tracked,
	}
	for _, ts := range s.snap.Tenants {
		if ts.Tenant == req.Tenant {
			resp["pending"] = ts.Pending
			resp["jobs"] = ts.Jobs
			resp["done"] = ts.Done
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusResponse is the full service view: the deterministic snapshot plus
// the server-side admission and recovery state.
type statusResponse struct {
	Version int `json:"version"`
	Snapshot
	Recovered          bool   `json:"recovered"`
	ReplayedOps        int    `json:"replayed_ops"`
	CheckpointVerified bool   `json:"checkpoint_verified"`
	Degraded           bool   `json:"degraded"`
	ModeChanges        int    `json:"mode_changes"`
	Queued             int    `json:"queued"`
	Accepted           int    `json:"accepted"`
	Shed               int    `json:"shed"`
	ExecsReaped        int    `json:"execs_reaped"`
	Draining           bool   `json:"draining"`
	Broken             string `json:"broken,omitempty"`
	LastError          string `json:"last_error,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := statusResponse{
		Version:            1,
		Snapshot:           s.snap,
		Recovered:          s.boot.Recovered,
		ReplayedOps:        s.boot.ReplayedOps,
		CheckpointVerified: s.boot.CheckpointVerified,
		Degraded:           s.degraded,
		ModeChanges:        s.svc.Hub().Counts().ModeChanges,
		Queued:             s.svc.JobsSubmitted() - s.svc.JobsFinished(),
		Accepted:           s.accepted,
		Shed:               s.shed,
		ExecsReaped:        s.reaped,
		Draining:           s.draining,
	}
	if err := s.svc.Broken(); err != nil {
		resp.Broken = err.Error()
	}
	if s.lastErr != nil {
		resp.LastError = s.lastErr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	page := s.metricsPage
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	w.Write(page) //custody:ignore errdrop a scrape-write failure means the scraper went away; nothing to do server-side
}
