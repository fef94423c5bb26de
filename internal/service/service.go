package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"wcm3d"
)

// Config tunes a Service. The zero value gets sensible defaults from New.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue rejects submissions with ErrQueueFull (default: 64).
	QueueDepth int
	// CacheCapacity bounds the prepared-die LRU cache (default: 16).
	CacheCapacity int
	// RetentionTTL bounds how long a finished job stays queryable before
	// the retention sweep drops it (default: 1h).
	RetentionTTL time.Duration
	// MaxFinished bounds the number of finished jobs retained in the job
	// table; the oldest finished entries beyond it are dropped (default:
	// 1024). Queued and running jobs are never pruned.
	MaxFinished int
	// GCInterval is the period of the retention sweep ticker (default:
	// 1m). Sweeps also run opportunistically on every submission.
	GCInterval time.Duration
	// MaxTimeout is the server-side cap on per-job and per-schedule
	// deadlines; a request's timeout_ms is clamped to it, and a request
	// without one gets it outright (default: 10m).
	MaxTimeout time.Duration
	// ScheduleConcurrency bounds how many POST /v1/schedules runs may
	// execute at once; excess requests get ErrScheduleBusy (default:
	// Workers).
	ScheduleConcurrency int
	// Prepare builds a die from a spec. Nil uses DefaultPrepare; tests
	// substitute counting, blocking or failing fault-injection hooks here.
	Prepare func(ctx context.Context, spec DieSpec) (*wcm3d.Die, error)
	// Journal, when non-nil, makes the job table durable: every accepted
	// job is recorded before it is queued, and a crash replays pending
	// and orphaned jobs on the next boot (see internal/wal and Recover).
	// Nil — the default — keeps the single-node in-memory behavior.
	Journal Journal
	// Logf receives operational log lines (recovery notes, journal write
	// failures, steal traffic). Nil discards them.
	Logf func(format string, args ...any)
}

// DieSpec identifies the die a job wants prepared.
type DieSpec struct {
	// Profile is the Table II profile to generate (when Source is empty).
	Profile wcm3d.Profile
	// Source is an inline .bench netlist (alternative to Profile).
	Source string
	// Name is the display/cache name ("b12/Die1" or "bench:<hash>"),
	// suffixed with the spare configuration when one is requested so
	// spared and spare-less preparations never share a cache entry.
	Name string
	// Seed drives generation, placement and ATPG.
	Seed int64
	// Spares asks the preparation to materialize spare TSV sites (the
	// prerequisite for POST /v1/jobs/{id}/replan).
	Spares wcm3d.SpareSpec
}

// DefaultPrepare is the production die builder: PrepareDie for profiles,
// ParseNetlist + PrepareParsed for inline sources. The heavy pipeline is
// not cancellable mid-flight, so ctx is only checked before starting.
func DefaultPrepare(ctx context.Context, spec DieSpec) (*wcm3d.Die, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Source != "" {
		n, err := wcm3d.ParseNetlist(spec.Name, strings.NewReader(spec.Source))
		if err != nil {
			return nil, err
		}
		if spec.Spares != (wcm3d.SpareSpec{}) {
			if err := wcm3d.AddSpareTSVs(n, spec.Spares); err != nil {
				return nil, err
			}
		}
		return wcm3d.PrepareParsed(n, spec.Seed)
	}
	if spec.Spares != (wcm3d.SpareSpec{}) {
		return wcm3d.PrepareDieWithSpares(spec.Profile, spec.Seed, spec.Spares)
	}
	return wcm3d.PrepareDie(spec.Profile, spec.Seed)
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Profile names a Table II die ("b12/1"); Netlist carries an inline
	// .bench source instead. Exactly one must be set.
	Profile string `json:"profile,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	// Seed drives generation, placement and ATPG (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Method is ours | agrawal | li | fullwrap (default ours).
	Method string `json:"method,omitempty"`
	// Timing is tight | loose (default tight).
	Timing string `json:"timing,omitempty"`
	// ATPG asks for a stuck-at evaluation of the plan.
	ATPG bool `json:"atpg,omitempty"`
	// Budget is the ATPG effort: full | reduced (default full).
	Budget string `json:"budget,omitempty"`
	// Verify asks for an independent re-verification of the plan (see
	// internal/verify); the report lands in Result.Verify. Also settable
	// as the verify=true query parameter on POST /v1/jobs.
	Verify bool `json:"verify,omitempty"`
	// Refine asks the anytime solver portfolio (see internal/refine) to
	// improve the greedy plan before signoff; its deadline is fed by the
	// job's clamped timeout_ms, the report lands in Result.Refine, and
	// the job's seed drives the annealer's RNG. Also settable as the
	// refine=true query parameter on POST /v1/jobs. Only meaningful for
	// methods with a threshold contract (ours, agrawal).
	Refine bool `json:"refine,omitempty"`
	// TimeoutMS bounds the job's execution once it starts running, in
	// milliseconds. It is clamped to the server's MaxTimeout cap; 0 means
	// the cap applies directly. A job over its deadline is canceled.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Spares asks the prepared die to carry spare TSV sites per side,
	// making the finished job replannable after TSV defects
	// (POST /v1/jobs/{id}/replan). Nil prepares no spares.
	Spares *wcm3d.SpareSpec `json:"spares,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the JSON view of a job, returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Request     JobRequest `json:"request"`
	Error       string     `json:"error,omitempty"`
	Result      *Report    `json:"result,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Replans counts the TSV-fault deltas applied to this job's plan via
	// POST /v1/jobs/{id}/replan (journal-recovered deltas included).
	Replans int `json:"replans,omitempty"`
}

type job struct {
	id        string
	state     string
	req       JobRequest
	spec      DieSpec
	method    wcm3d.Method
	mode      wcm3d.TimingMode
	budget    wcm3d.ATPGBudget
	result    *Report
	err       error
	cancel    context.CancelFunc
	submitted time.Time
	started   *time.Time
	finished  *time.Time
	// abandoned marks a job cut off by the shutdown drain deadline: its
	// terminal transition is deliberately NOT journaled, so a configured
	// WAL replays it as pending on the next boot instead of losing it.
	abandoned bool
	// remote is the peer id currently executing this job after a steal
	// ("" when running locally); remoteOrigin marks a job this node is
	// executing on a peer's behalf (excluded from the local journal,
	// routing and re-stealing).
	remote       string
	remoteOrigin bool
	// onFinish fires exactly once when the job reaches a terminal state
	// (the cluster layer uses it to report stolen-job results back).
	onFinish func(JobStatus)

	// replanMu serializes replans per job — a ReplanPlanner is not safe
	// for concurrent use. Acquired without s.mu (planner work is slow).
	replanMu sync.Mutex
	// planner is the lazily-built incremental replanner, seeded from the
	// cached prepared die on the first replan and rebuilt (replaying
	// replans) after a restart. Guarded by replanMu.
	planner *wcm3d.ReplanPlanner
	// replans is the job's applied delta history in order — the planner's
	// rebuild script. Guarded by s.mu (status() reads its length).
	replans []ReplanRequest
}

// DrainReport summarizes a shutdown: how the accepted jobs ended up. Jobs
// cut off by the drain deadline are reported as canceled and listed in
// Abandoned; with a journal configured they are deliberately left
// un-finalized in the WAL so the next boot replays them instead of
// dropping them silently.
type DrainReport struct {
	Done      int      `json:"done"`
	Failed    int      `json:"failed"`
	Canceled  int      `json:"canceled"`
	Abandoned []string `json:"abandoned,omitempty"`
}

// Service is the WCM daemon core: it validates and queues minimization
// requests, runs them on a bounded worker pool against an LRU die cache,
// and exposes status, health and metrics. Create with New, serve with
// Handler, stop with Shutdown.
type Service struct {
	cfg      Config
	metrics  *Metrics
	dies     *dieCache
	pool     *pool
	schedSem chan struct{} // schedule-admission semaphore
	gcStop   chan struct{} // closed by Shutdown; ends the retention sweeper
	// cluster is the optional cluster view (AttachCluster); set once
	// before Handler, read without locking afterwards.
	cluster ClusterView

	mu      sync.Mutex
	closed  bool
	seq     int
	jobs    map[string]*job
	batches map[string]*batchRun
}

// New builds a Service and starts its worker pool and retention sweeper.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 16
	}
	if cfg.RetentionTTL <= 0 {
		cfg.RetentionTTL = time.Hour
	}
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = 1024
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.ScheduleConcurrency <= 0 {
		cfg.ScheduleConcurrency = cfg.Workers
	}
	if cfg.Prepare == nil {
		cfg.Prepare = DefaultPrepare
	}
	m := &Metrics{}
	s := &Service{
		cfg:      cfg,
		metrics:  m,
		dies:     newDieCache(cfg.CacheCapacity, m),
		pool:     newPool(cfg.Workers, cfg.QueueDepth),
		schedSem: make(chan struct{}, cfg.ScheduleConcurrency),
		gcStop:   make(chan struct{}),
		jobs:     make(map[string]*job),
		batches:  make(map[string]*batchRun),
	}
	go s.gcLoop()
	return s
}

// Metrics exposes the counters (tests assert on them).
func (s *Service) Metrics() *Metrics { return s.metrics }

// resolve validates a request and fills in defaults.
func (s *Service) resolve(req JobRequest) (*job, error) {
	j := &job{req: req}
	switch {
	case req.Profile != "" && req.Netlist != "":
		return nil, errors.New("pass profile or netlist, not both")
	case req.Profile != "":
		p, err := wcm3d.ProfileByName(req.Profile)
		if err != nil {
			return nil, err
		}
		j.spec.Profile = p
		j.spec.Name = p.Name()
	case req.Netlist != "":
		// Parse the upload synchronously so a malformed netlist is a clean
		// 400 at submit time instead of an async job failure. The prepare
		// path re-parses, but only once per unique source thanks to the die
		// cache, and parsing is cheap next to placement and timing.
		if _, err := wcm3d.ParseNetlist("upload", strings.NewReader(req.Netlist)); err != nil {
			return nil, fmt.Errorf("netlist: %w", err)
		}
		sum := sha256.Sum256([]byte(req.Netlist))
		j.spec.Source = req.Netlist
		j.spec.Name = "bench:" + hex.EncodeToString(sum[:6])
	default:
		return nil, errors.New("pass profile or netlist")
	}
	if req.Spares != nil {
		if req.Spares.Inbound < 0 || req.Spares.Outbound < 0 {
			return nil, fmt.Errorf("spare counts must be >= 0, got %+v", *req.Spares)
		}
		j.spec.Spares = *req.Spares
		if *req.Spares != (wcm3d.SpareSpec{}) {
			// The spare sites change the prepared netlist, so the cache
			// key must distinguish spared preparations.
			j.spec.Name = fmt.Sprintf("%s+s%di%do", j.spec.Name, req.Spares.Inbound, req.Spares.Outbound)
		}
	}
	if req.Seed == 0 {
		req.Seed = 1
		j.req.Seed = 1
	}
	j.spec.Seed = req.Seed
	m := req.Method
	if m == "" {
		m = "ours"
	}
	method, err := wcm3d.ParseMethod(m)
	if err != nil {
		return nil, err
	}
	j.method = method
	tm := req.Timing
	if tm == "" {
		tm = "tight"
	}
	mode, err := wcm3d.ParseTimingMode(tm)
	if err != nil {
		return nil, err
	}
	j.mode = mode
	switch req.Budget {
	case "", "full":
		j.budget = wcm3d.DefaultBudget(req.Seed)
	case "reduced":
		j.budget = wcm3d.ReducedBudget(req.Seed)
	default:
		return nil, fmt.Errorf("unknown budget %q", req.Budget)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	return j, nil
}

// effectiveTimeout clamps a requested timeout_ms to the server-side cap; a
// zero request gets the cap directly.
func (s *Service) effectiveTimeout(ms int64) time.Duration {
	d := s.cfg.MaxTimeout
	if ms > 0 {
		if t := time.Duration(ms) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// Submit validates req and queues it. It returns the queued job's status,
// or ErrQueueFull under backpressure, ErrShuttingDown after Shutdown,
// ErrJournal when the write-ahead log cannot make the job durable, and
// plain validation errors for malformed requests.
func (s *Service) Submit(req JobRequest) (JobStatus, error) {
	j, err := s.resolve(req)
	if err != nil {
		return JobStatus{}, err
	}
	return s.enqueue(j)
}

// enqueue assigns an id to a resolved job, journals it (unless the job is
// remote-origin or no journal is configured), and hands it to the pool.
// The journal write happens before the pool can run the job, so every job
// a client ever saw accepted is recoverable after a crash.
func (s *Service) enqueue(j *job) (JobStatus, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrShuttingDown
	}
	s.seq++
	j.id = fmt.Sprintf("j-%06d", s.seq)
	j.state = StateQueued
	j.submitted = time.Now()
	s.jobs[j.id] = j
	s.gcLocked(time.Now())
	s.mu.Unlock()

	if s.cfg.Journal != nil && !j.remoteOrigin {
		if err := s.cfg.Journal.Submit(j.id, j.req); err != nil {
			s.mu.Lock()
			delete(s.jobs, j.id)
			s.mu.Unlock()
			s.metrics.WALErrors.Add(1)
			return JobStatus{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	if err := s.pool.trySubmit(func(ctx context.Context) { s.runJob(ctx, j) }); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			s.metrics.JobsRejected.Add(1)
		}
		if s.cfg.Journal != nil && !j.remoteOrigin {
			// Neutralize the submit record: the client was refused, so the
			// job must not rise from the log on the next boot.
			if jerr := s.cfg.Journal.Cancel(j.id); jerr != nil {
				s.metrics.WALErrors.Add(1)
				s.logf("wcmd: journal cancel %s after rejection: %v", j.id, jerr)
			}
		}
		return JobStatus{}, err
	}
	s.metrics.JobsQueued.Add(1)
	return s.status(j), nil
}

// Job returns the status of one job.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return s.status(j), true
}

// Jobs lists every retained job, oldest first.
func (s *Service) Jobs() []JobStatus { return s.JobsFiltered("", 0) }

// JobsFiltered lists retained jobs oldest first, optionally restricted to
// one state and truncated to the most recent limit entries (0 = no limit).
func (s *Service) JobsFiltered(state string, limit int) []JobStatus {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return seqLess(js[a].id, js[b].id) })
	out := make([]JobStatus, 0, len(js))
	for _, j := range js {
		st := s.status(j)
		if state != "" && st.State != state {
			continue
		}
		out = append(out, st)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// JobsPage lists retained jobs oldest first starting strictly after the
// job id `after` ("" = from the beginning), optionally restricted to one
// state and truncated to the FIRST limit entries (0 = no limit). It
// returns the page and the id of the last returned job — the resume point
// the HTTP layer hands back as the opaque `next` cursor.
func (s *Service) JobsPage(state string, limit int, after string) ([]JobStatus, string) {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if after == "" || seqLess(after, j.id) {
			js = append(js, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return seqLess(js[a].id, js[b].id) })
	out := make([]JobStatus, 0, len(js))
	last := ""
	for _, j := range js {
		st := s.status(j)
		if state != "" && st.State != state {
			continue
		}
		out = append(out, st)
		last = st.ID
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out, last
}

// Cancel cancels a job: a queued job is marked canceled before it starts;
// a running job's context is cancelled so it aborts at the next stage
// boundary. It reports whether the id was known.
func (s *Service) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, false
	}
	canceledQueued := false
	switch j.state {
	case StateQueued:
		s.finishLocked(j, StateCanceled, nil, context.Canceled)
		canceledQueued = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	if canceledQueued {
		s.journalFinish(j)
		s.notifyFinish(j)
	}
	return s.status(j), true
}

// Dies lists the cached prepared dies, most recently used first.
func (s *Service) Dies() []DieInfo { return s.dies.snapshot() }

// Healthy reports whether the service accepts work.
func (s *Service) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Snapshot returns the /metrics document.
func (s *Service) Snapshot() MetricsSnapshot {
	snap := s.metrics.snapshot()
	s.mu.Lock()
	snap.Jobs.Retained = len(s.jobs)
	s.mu.Unlock()
	snap.Cache.Entries = s.dies.len()
	snap.Cache.Capacity = s.cfg.CacheCapacity
	snap.Queue.Depth = s.pool.depth()
	snap.Queue.Capacity = s.cfg.QueueDepth
	snap.Queue.Workers = s.cfg.Workers
	return snap
}

// gcLoop runs the retention sweep on a ticker until Shutdown.
func (s *Service) gcLoop() {
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			s.gcLocked(time.Now())
			s.mu.Unlock()
		case <-s.gcStop:
			return
		}
	}
}

// gcLocked applies the retention policy: finished jobs older than
// RetentionTTL are dropped, then the oldest finished entries beyond
// MaxFinished. Queued and running jobs are never touched. Callers hold
// s.mu.
func (s *Service) gcLocked(now time.Time) {
	s.gcBatchesLocked(now)
	cutoff := now.Add(-s.cfg.RetentionTTL)
	finished := make([]*job, 0, len(s.jobs))
	for id, j := range s.jobs {
		if j.finished == nil {
			continue
		}
		if j.finished.Before(cutoff) {
			delete(s.jobs, id)
			s.metrics.JobsPruned.Add(1)
			continue
		}
		finished = append(finished, j)
	}
	n := len(finished) - s.cfg.MaxFinished
	if n <= 0 {
		return
	}
	sort.Slice(finished, func(a, b int) bool {
		fa, fb := finished[a], finished[b]
		if !fa.finished.Equal(*fb.finished) {
			return fa.finished.Before(*fb.finished)
		}
		return seqLess(fa.id, fb.id)
	})
	for _, j := range finished[:n] {
		delete(s.jobs, j.id)
		s.metrics.JobsPruned.Add(1)
	}
}

// Shutdown stops accepting work and drains accepted jobs. If ctx expires
// before the drain completes, in-flight jobs are cancelled and reported as
// canceled in the DrainReport — the partial state a supervisor logs on the
// way down.
func (s *Service) Shutdown(ctx context.Context) (DrainReport, error) {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		close(s.gcStop)
	}
	err := s.pool.shutdown(ctx)
	var rep DrainReport
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.state {
		case StateDone:
			rep.Done++
		case StateFailed:
			rep.Failed++
		case StateCanceled:
			rep.Canceled++
		case StateQueued, StateRunning:
			// The pool has exited, so nothing will run these; account for
			// them as canceled. They are abandoned, not finished: no
			// terminal record reaches the journal, so a configured WAL
			// replays them on the next boot instead of dropping them.
			j.abandoned = true
			s.finishLocked(j, StateCanceled, nil, context.Canceled)
			rep.Canceled++
		}
		if j.abandoned && !j.remoteOrigin {
			rep.Abandoned = append(rep.Abandoned, j.id)
		}
	}
	for _, b := range s.batches {
		switch b.state {
		case StateDone:
			rep.Done++
		case StateFailed:
			rep.Failed++
		case StateCanceled:
			rep.Canceled++
		case StateQueued, StateRunning:
			// Same abandonment contract as jobs: no terminal record reaches
			// the journal, so a configured WAL replays the batch on boot.
			b.abandoned = true
			s.finishBatchLocked(b, StateCanceled, context.Canceled)
			rep.Canceled++
		}
		if b.abandoned {
			rep.Abandoned = append(rep.Abandoned, b.id)
		}
	}
	s.mu.Unlock()
	sort.Slice(rep.Abandoned, func(a, b int) bool { return seqLess(rep.Abandoned[a], rep.Abandoned[b]) })
	return rep, err
}

// status snapshots a job under the service lock.
func (s *Service) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Request:     j.req,
		Result:      j.result,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Replans:     len(j.replans),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// finishLocked moves a job to a terminal state; callers hold s.mu.
func (s *Service) finishLocked(j *job, state string, rep *Report, err error) {
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return
	}
	j.state = state
	j.result = rep
	j.err = err
	now := time.Now()
	j.finished = &now
	switch state {
	case StateDone:
		s.metrics.JobsDone.Add(1)
	case StateFailed:
		s.metrics.JobsFailed.Add(1)
	case StateCanceled:
		s.metrics.JobsCanceled.Add(1)
	}
}

// runJob executes one job on a pool worker under the job's own deadline.
func (s *Service) runJob(poolCtx context.Context, j *job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(poolCtx, s.effectiveTimeout(j.req.TimeoutMS))
	j.cancel = cancel
	j.state = StateRunning
	now := time.Now()
	j.started = &now
	s.mu.Unlock()
	defer cancel()

	if !j.remoteOrigin {
		s.journalStart(j.id)
	}
	s.metrics.JobsRunning.Add(1)
	start := time.Now()
	rep, err := s.execute(ctx, j)
	s.metrics.ObserveOutcome(StageTotal, time.Since(start), err)
	s.metrics.JobsRunning.Add(-1)

	s.mu.Lock()
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, rep, nil)
	case ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// Canceled only when it was THIS job's context (cancel, deadline
		// or shutdown) — a context error that bubbled out of shared
		// machinery while this job is still live is a plain failure, not
		// someone else's cancellation.
		if poolCtx.Err() != nil {
			// The drain deadline expired, not the job's own deadline or a
			// client cancel: abandon instead of finalizing, so the WAL
			// replays the job on the next boot.
			j.abandoned = true
		}
		s.finishLocked(j, StateCanceled, nil, err)
	default:
		s.finishLocked(j, StateFailed, nil, err)
	}
	s.mu.Unlock()
	s.journalFinish(j)
	s.notifyFinish(j)
}

// preparer wraps cfg.Prepare for one spec with prepare-stage metrics that
// record every outcome — success, failure and abort alike.
func (s *Service) preparer(spec DieSpec) func(context.Context) (*wcm3d.Die, error) {
	return func(ctx context.Context) (*wcm3d.Die, error) {
		start := time.Now()
		d, err := s.cfg.Prepare(ctx, spec)
		s.metrics.ObserveOutcome(StagePrepare, time.Since(start), err)
		return d, err
	}
}

// execute runs the minimize pipeline, checking ctx between stages so
// per-job cancellation, job deadlines and shutdown deadlines take effect
// at stage boundaries. Every stage records its latency whatever the
// outcome.
// MinRefineBudget is the smallest portfolio budget worth starting: below
// it the solvers cannot finish a meaningful sweep even on a mid-size die,
// so the refine stage skips explicitly (RefineReport.Skipped, the
// refine.skipped counter) instead of pretending to search.
const MinRefineBudget = 50 * time.Millisecond

// refineFunding computes the refine stage's budget — half the job's
// remaining clamped deadline — and whether it clears MinRefineBudget.
// Without a deadline the portfolio's default budget stands.
func refineFunding(ctx context.Context) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return wcm3d.DefaultRefineBudget, true
	}
	funded := time.Until(dl) / 2
	if funded < MinRefineBudget {
		if funded < 0 {
			funded = 0
		}
		return funded, false
	}
	return funded, true
}

func (s *Service) execute(ctx context.Context, j *job) (*Report, error) {
	die, err := s.dies.get(ctx, DieKey{Name: j.spec.Name, Seed: j.spec.Seed}, s.preparer(j.spec))
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", j.spec.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start := time.Now()
	res, err := wcm3d.Minimize(die, j.method, j.mode)
	s.metrics.ObserveOutcome(StageMinimize, time.Since(start), err)
	if err != nil {
		return nil, fmt.Errorf("minimize: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var refineRep *RefineReport
	if j.req.Refine && res.Options.Order != 0 {
		// Half the job's remaining deadline goes to the portfolio (the
		// signoff/verify/ATPG stages still need their share); a longer
		// timeout_ms therefore buys a deeper search. Methods without a
		// threshold contract (li, fullwrap) have no sharing model to
		// refine and skip the stage. A job that queued long (or asked
		// for a small timeout_ms) can arrive here with almost nothing
		// left: funding the portfolio with a zero or negative budget
		// used to fall through to the 2 s default and overrun the
		// deadline, while a near-zero one silently no-oped yet still
		// attached a normal-looking RefineReport. Below the floor the
		// stage now skips explicitly and says so.
		funded, ok := refineFunding(ctx)
		if !ok {
			s.metrics.RefineSkipped.Add(1)
			refineRep = &RefineReport{
				Skipped:         true,
				FundedMS:        funded.Milliseconds(),
				GreedyCells:     res.AdditionalCells,
				AdditionalCells: res.AdditionalCells,
				ReusedFFs:       res.ReusedFFs,
			}
		} else {
			start = time.Now()
			ro := wcm3d.RefineOptions{Seed: j.spec.Seed, Budget: funded}
			rr, err := wcm3d.Refine(ctx, die, res.Options, res, ro)
			s.metrics.ObserveOutcome(StageRefine, time.Since(start), err)
			if err != nil {
				return nil, fmt.Errorf("refine: %w", err)
			}
			if rr.Improved {
				res.Assignment = rr.Assignment
				res.AdditionalCells = rr.AdditionalCells
				res.ReusedFFs = rr.ReusedFFs
				s.metrics.RefineImproved.Add(1)
				s.metrics.RefineCellsSaved.Add(int64(rr.CellsSaved))
			}
			refineRep = EncodeRefine(rr)
			refineRep.FundedMS = funded.Milliseconds()
		}
	}
	rep := EncodeResult(DescribeDie(j.spec.Name, j.spec.Seed, die), j.method, j.mode, res, die.Lib)
	rep.Refine = refineRep
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start = time.Now()
	viol, wns, err := wcm3d.CheckTiming(die, res.Assignment)
	s.metrics.ObserveOutcome(StageSignoff, time.Since(start), err)
	if err != nil {
		return nil, fmt.Errorf("signoff: %w", err)
	}
	rep.SetSignoff(viol, wns)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if j.req.Verify {
		start = time.Now()
		vres, err := wcm3d.VerifyPlan(die, res, wcm3d.VerifyOptions{})
		s.metrics.ObserveOutcome(StageVerify, time.Since(start), err)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		rep.Verify = EncodeVerify(vres)
		if !vres.OK() {
			s.metrics.VerifyFailures.Add(1)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	if j.req.ATPG {
		start = time.Now()
		tb, err := wcm3d.EvaluateStuckAt(die, res.Assignment, j.budget)
		if err != nil {
			s.metrics.ObserveOutcome(StageATPG, time.Since(start), err)
			return nil, fmt.Errorf("atpg: %w", err)
		}
		chains, err := wcm3d.BuildScanChains(die, res.Assignment, 4)
		s.metrics.ObserveOutcome(StageATPG, time.Since(start), err)
		if err != nil {
			return nil, fmt.Errorf("scan chains: %w", err)
		}
		rep.SetStuckAt(tb, chains.TestCycles(tb.Patterns))
	}
	return rep, nil
}
