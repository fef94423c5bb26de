package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"wcm3d"
	"wcm3d/internal/batch"
)

// maxBatchDies caps how many dies one batch may name; the full Table II
// sweep is 24, so the cap leaves room for multi-seed sweeps without
// letting a single request monopolize the daemon for hours.
const maxBatchDies = 64

// BatchRequest is the body of POST /v1/batches: a multi-die sweep run
// through the streaming batch engine (internal/batch), riding the
// prepared-die cache. Exactly one of All, Circuit or Profiles selects
// the dies.
type BatchRequest struct {
	// All runs the full 24-die Table II sweep.
	All bool `json:"all,omitempty"`
	// Circuit expands to one benchmark family's four dies ("b12").
	Circuit string `json:"circuit,omitempty"`
	// Profiles lists individual Table II dies ("b12/1").
	Profiles []string `json:"profiles,omitempty"`
	// Seed drives generation and placement for every die (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Method is ours | agrawal | li | fullwrap (default ours).
	Method string `json:"method,omitempty"`
	// Timing is tight | loose (default tight).
	Timing string `json:"timing,omitempty"`
	// Verify asks for independent plan verification per die.
	Verify bool `json:"verify,omitempty"`
	// MaxInFlight bounds how many dies are resident at once — the batch
	// memory budget (default 2, capped at 8).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// TimeoutMS bounds the whole batch once it starts running; clamped to
	// the server's MaxTimeout cap, which applies outright when 0.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Per-die states inside a batch (jobs reuse the service-wide states).
const (
	BatchDiePending = "pending"
	BatchDieDone    = "done"
	BatchDieFailed  = "failed"
)

// BatchDie is one die's progress inside a batch.
type BatchDie struct {
	Die   string `json:"die"`
	Seed  int64  `json:"seed"`
	State string `json:"state"`
	// Plan headline numbers, set once the die is done.
	ReusedFFs       int    `json:"reused_ffs,omitempty"`
	AdditionalCells int    `json:"additional_cells,omitempty"`
	Error           string `json:"error,omitempty"`
	PrepareMS       int64  `json:"prepare_ms,omitempty"`
	SolveMS         int64  `json:"solve_ms,omitempty"`
}

// BatchStatus is the JSON view of a batch, returned by POST /v1/batches
// and GET /v1/batches/{id}.
type BatchStatus struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Request BatchRequest `json:"request"`
	// Total/Completed/Failed summarize progress for cheap polling; Dies
	// carries the per-die detail.
	Total       int        `json:"total"`
	Completed   int        `json:"completed"`
	Failed      int        `json:"failed"`
	Dies        []BatchDie `json:"dies"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// RecoveredBatch is one batch reconstructed from the write-ahead log at
// boot. State is "" for a pending batch (re-run) or the terminal state
// for one that finished before the crash (restored for pollers).
type RecoveredBatch struct {
	ID          string
	Req         BatchRequest
	State       string
	Err         string
	SubmittedAt time.Time
	FinishedAt  time.Time
}

// batchRun is the in-memory state of one batch.
type batchRun struct {
	id          string
	state       string
	req         BatchRequest
	specs       []batch.Spec
	method      wcm3d.Method
	mode        wcm3d.TimingMode
	maxInFlight int
	dies        []BatchDie
	completed   int
	failed      int
	err         error
	cancel      context.CancelFunc
	submitted   time.Time
	started     *time.Time
	finished    *time.Time
	// abandoned mirrors job semantics: a batch cut off by the shutdown
	// drain deadline is not finalized in the WAL, so the next boot
	// replays it instead of losing it.
	abandoned bool
}

// resolveBatch validates a request and expands its die selection.
func (s *Service) resolveBatch(req BatchRequest) (*batchRun, error) {
	b := &batchRun{req: req}
	selections := 0
	var profiles []wcm3d.Profile
	if req.All {
		selections++
		profiles = wcm3d.ITC99Profiles()
	}
	if req.Circuit != "" {
		selections++
		profiles = wcm3d.CircuitProfiles(req.Circuit)
		if len(profiles) == 0 {
			return nil, fmt.Errorf("unknown circuit %q", req.Circuit)
		}
	}
	if len(req.Profiles) > 0 {
		selections++
		profiles = profiles[:0]
		for _, name := range req.Profiles {
			p, err := wcm3d.ProfileByName(name)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
	}
	if selections != 1 {
		return nil, errors.New("pass exactly one of all, circuit or profiles")
	}
	if len(profiles) > maxBatchDies {
		return nil, fmt.Errorf("batch names %d dies, cap is %d", len(profiles), maxBatchDies)
	}
	if req.Seed == 0 {
		req.Seed = 1
		b.req.Seed = 1
	}
	m := req.Method
	if m == "" {
		m = "ours"
	}
	method, err := wcm3d.ParseMethod(m)
	if err != nil {
		return nil, err
	}
	b.method = method
	tm := req.Timing
	if tm == "" {
		tm = "tight"
	}
	mode, err := wcm3d.ParseTimingMode(tm)
	if err != nil {
		return nil, err
	}
	b.mode = mode
	switch {
	case req.MaxInFlight < 0 || req.MaxInFlight > 8:
		return nil, fmt.Errorf("max_in_flight must be in [0,8], got %d", req.MaxInFlight)
	case req.MaxInFlight == 0:
		b.maxInFlight = 2
	default:
		b.maxInFlight = req.MaxInFlight
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	b.specs = make([]batch.Spec, len(profiles))
	b.dies = make([]BatchDie, len(profiles))
	for i, p := range profiles {
		b.specs[i] = batch.Spec{Profile: p, Seed: req.Seed}
		b.dies[i] = BatchDie{Die: p.Name(), Seed: req.Seed, State: BatchDiePending}
	}
	return b, nil
}

// SubmitBatch validates req and queues the batch as one unit of pool
// work, sharing the job queue's admission control: a full queue returns
// ErrQueueFull (HTTP 429) exactly like job submissions.
func (s *Service) SubmitBatch(req BatchRequest) (BatchStatus, error) {
	b, err := s.resolveBatch(req)
	if err != nil {
		return BatchStatus{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return BatchStatus{}, ErrShuttingDown
	}
	s.seq++
	b.id = fmt.Sprintf("b-%06d", s.seq)
	b.state = StateQueued
	b.submitted = time.Now()
	s.batches[b.id] = b
	s.gcLocked(time.Now())
	s.mu.Unlock()

	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.SubmitBatch(b.id, b.req); err != nil {
			s.mu.Lock()
			delete(s.batches, b.id)
			s.mu.Unlock()
			s.metrics.WALErrors.Add(1)
			return BatchStatus{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	if err := s.pool.trySubmit(func(ctx context.Context) { s.runBatch(ctx, b) }); err != nil {
		s.mu.Lock()
		delete(s.batches, b.id)
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			s.metrics.BatchesRejected.Add(1)
		}
		if s.cfg.Journal != nil {
			// Neutralize the submit record: the client was refused, so the
			// batch must not rise from the log on the next boot.
			if jerr := s.cfg.Journal.FinishBatch(b.id, StateCanceled, "rejected at admission"); jerr != nil {
				s.metrics.WALErrors.Add(1)
				s.logf("wcmd: journal finish %s after rejection: %v", b.id, jerr)
			}
		}
		return BatchStatus{}, err
	}
	return s.batchStatus(b), nil
}

// Batch returns the status of one batch.
func (s *Service) Batch(id string) (BatchStatus, bool) {
	s.mu.Lock()
	b, ok := s.batches[id]
	s.mu.Unlock()
	if !ok {
		return BatchStatus{}, false
	}
	return s.batchStatus(b), true
}

// Batches lists every retained batch, oldest first.
func (s *Service) Batches() []BatchStatus {
	s.mu.Lock()
	bs := make([]*batchRun, 0, len(s.batches))
	for _, b := range s.batches {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	sort.Slice(bs, func(a, b int) bool { return seqLess(bs[a].id, bs[b].id) })
	out := make([]BatchStatus, 0, len(bs))
	for _, b := range bs {
		out = append(out, s.batchStatus(b))
	}
	return out
}

// CancelBatch cancels a batch: queued batches are finalized before they
// start, a running batch's context is cancelled so its pipeline stops at
// the next die boundary. It reports whether the id was known.
func (s *Service) CancelBatch(id string) (BatchStatus, bool) {
	s.mu.Lock()
	b, ok := s.batches[id]
	if !ok {
		s.mu.Unlock()
		return BatchStatus{}, false
	}
	canceledQueued := false
	switch b.state {
	case StateQueued:
		s.finishBatchLocked(b, StateCanceled, context.Canceled)
		canceledQueued = true
	case StateRunning:
		if b.cancel != nil {
			b.cancel()
		}
	}
	s.mu.Unlock()
	if canceledQueued {
		s.journalBatchFinish(b)
	}
	return s.batchStatus(b), true
}

// batchStatus snapshots a batch under the service lock.
func (s *Service) batchStatus(b *batchRun) BatchStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := BatchStatus{
		ID:          b.id,
		State:       b.state,
		Request:     b.req,
		Total:       len(b.dies),
		Completed:   b.completed,
		Failed:      b.failed,
		Dies:        append([]BatchDie(nil), b.dies...),
		SubmittedAt: b.submitted,
		StartedAt:   b.started,
		FinishedAt:  b.finished,
	}
	if b.err != nil {
		st.Error = b.err.Error()
	}
	return st
}

// finishBatchLocked moves a batch to a terminal state; callers hold s.mu.
func (s *Service) finishBatchLocked(b *batchRun, state string, err error) {
	if b.state == StateDone || b.state == StateFailed || b.state == StateCanceled {
		return
	}
	b.state = state
	b.err = err
	now := time.Now()
	b.finished = &now
	switch state {
	case StateDone:
		s.metrics.BatchesDone.Add(1)
	case StateFailed:
		s.metrics.BatchesFailed.Add(1)
	case StateCanceled:
		s.metrics.BatchesCanceled.Add(1)
	}
}

// journalBatchFinish writes a batch's terminal record after the state
// transition committed. Callers must NOT hold s.mu (the journal fsyncs).
// Abandoned batches are deliberately not journaled so they replay as
// pending on the next boot.
func (s *Service) journalBatchFinish(b *batchRun) {
	if s.cfg.Journal == nil {
		return
	}
	s.mu.Lock()
	state, abandoned := b.state, b.abandoned
	var errMsg string
	if b.err != nil {
		errMsg = b.err.Error()
	}
	s.mu.Unlock()
	if abandoned {
		return
	}
	switch state {
	case StateDone, StateFailed, StateCanceled:
	default:
		return
	}
	if err := s.cfg.Journal.FinishBatch(b.id, state, errMsg); err != nil {
		s.metrics.WALErrors.Add(1)
		s.logf("wcmd: journal batch finish %s: %v", b.id, err)
	}
}

// observeBatchDie folds one die's pipeline outcome into the batch's
// progress view; called from the engine's workers mid-run.
func (s *Service) observeBatchDie(b *batchRun, dr batch.DieResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &b.dies[dr.Index]
	d.PrepareMS = dr.PrepareDur.Milliseconds()
	d.SolveMS = dr.SolveDur.Milliseconds()
	switch {
	case dr.Err == nil:
		d.State = BatchDieDone
		d.ReusedFFs = dr.Result.ReusedFFs
		d.AdditionalCells = dr.Result.AdditionalCells
		b.completed++
	case errors.Is(dr.Err, context.Canceled) || errors.Is(dr.Err, context.DeadlineExceeded):
		// A die cut off by batch cancellation stays pending — it did not
		// fail on its own merits.
		d.State = BatchDiePending
	default:
		d.State = BatchDieFailed
		d.Error = dr.Err.Error()
		b.failed++
	}
}

// runBatch executes one batch on a pool worker under the batch's own
// deadline. The batch occupies a single pool slot; its internal pipeline
// (1 prepare + 1 solve worker, MaxInFlight resident dies) overlaps the
// next die's preparation with the current die's solve without
// oversubscribing the pool.
func (s *Service) runBatch(poolCtx context.Context, b *batchRun) {
	s.mu.Lock()
	if b.state != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(poolCtx, s.effectiveTimeout(b.req.TimeoutMS))
	b.cancel = cancel
	b.state = StateRunning
	now := time.Now()
	b.started = &now
	s.mu.Unlock()
	defer cancel()

	s.metrics.BatchesActive.Add(1)
	start := time.Now()
	_, err := batch.Run(ctx, b.specs, batch.Config{
		Method:         b.method,
		Mode:           b.mode,
		Verify:         b.req.Verify,
		PrepareWorkers: 1,
		SolveWorkers:   1,
		MaxInFlight:    b.maxInFlight,
		Prepare: func(ctx context.Context, spec batch.Spec) (*wcm3d.Die, error) {
			// Ride the shared prepared-die cache: a die another job (or an
			// earlier batch) already built is reused, and concurrent
			// requests for the same die single-flight.
			name := spec.Profile.Name()
			return s.dies.get(ctx, DieKey{Name: name, Seed: spec.Seed},
				s.preparer(DieSpec{Profile: spec.Profile, Name: name, Seed: spec.Seed}))
		},
		OnDie: func(dr batch.DieResult) { s.observeBatchDie(b, dr) },
	})
	s.metrics.ObserveOutcome(StageBatch, time.Since(start), err)
	s.metrics.BatchesActive.Add(-1)
	s.metrics.BatchDies.ObserveCount(len(b.specs))

	s.mu.Lock()
	switch {
	case err == nil && b.failed == 0:
		s.finishBatchLocked(b, StateDone, nil)
	case err == nil:
		s.finishBatchLocked(b, StateFailed,
			fmt.Errorf("%d of %d dies failed", b.failed, len(b.dies)))
	case ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		if poolCtx.Err() != nil {
			// The drain deadline expired, not the batch's own deadline or a
			// client cancel: abandon so the WAL replays it on the next boot.
			b.abandoned = true
		}
		s.finishBatchLocked(b, StateCanceled, err)
	default:
		s.finishBatchLocked(b, StateFailed, err)
	}
	s.mu.Unlock()
	s.journalBatchFinish(b)
}

// recoverBatches replays WAL batch state at boot: finished batches are
// restored for pollers, pending ones are re-queued for a fresh run (the
// engine is idempotent and the die cache makes the re-run cheap). Called
// from Recover with s.mu NOT held.
func (s *Service) recoverBatches(recs []RecoveredBatch) (requeued, restored int) {
	var feed []*batchRun
	s.mu.Lock()
	for _, r := range recs {
		if _, dup := s.batches[r.ID]; dup || r.ID == "" {
			continue
		}
		if n := jobSeq(r.ID); n > s.seq {
			s.seq = n
		}
		b, err := func() (*batchRun, error) {
			s.mu.Unlock()
			defer s.mu.Lock()
			return s.resolveBatch(r.Req)
		}()
		if err != nil {
			s.logf("wcmd: recovery: batch %s request no longer valid, dropping: %v", r.ID, err)
			continue
		}
		b.id = r.ID
		b.submitted = r.SubmittedAt
		if b.submitted.IsZero() {
			b.submitted = time.Now()
		}
		if r.State != "" { // finished before the crash: restore, don't run
			b.state = r.State
			if r.Err != "" {
				b.err = errors.New(r.Err)
			}
			// Per-die results are not journaled, but a done batch by
			// definition completed every die — restore the die states so
			// pollers don't read "done, 0 of N". The plan numbers are
			// gone with the crash; re-submitting recomputes them.
			if r.State == StateDone {
				for i := range b.dies {
					b.dies[i].State = BatchDieDone
				}
				b.completed = len(b.dies)
			}
			ft := r.FinishedAt
			if ft.IsZero() {
				ft = time.Now()
			}
			b.finished = &ft
			s.batches[b.id] = b
			restored++
			continue
		}
		b.state = StateQueued
		s.batches[b.id] = b
		feed = append(feed, b)
		requeued++
		s.logf("wcmd: recovery: batch %s re-queued for re-execution (%d dies)", b.id, len(b.specs))
	}
	s.mu.Unlock()
	if len(feed) > 0 {
		go s.feedRecoveredBatches(feed)
	}
	return requeued, restored
}

// feedRecoveredBatches pushes recovered batches into the bounded pool
// queue, retrying full-queue rejections as workers drain it (mirrors
// feedRecovered for jobs).
func (s *Service) feedRecoveredBatches(feed []*batchRun) {
	for _, b := range feed {
		b := b
		for {
			s.mu.Lock()
			state := b.state
			s.mu.Unlock()
			if state != StateQueued { // canceled while waiting for a slot
				break
			}
			err := s.pool.trySubmit(func(ctx context.Context) { s.runBatch(ctx, b) })
			if err == nil {
				break
			}
			if errors.Is(err, ErrShuttingDown) {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// gcBatchesLocked applies the retention policy to finished batches:
// older than RetentionTTL dropped, then the oldest beyond MaxFinished.
// Queued and running batches are never touched. Callers hold s.mu.
func (s *Service) gcBatchesLocked(now time.Time) {
	cutoff := now.Add(-s.cfg.RetentionTTL)
	finished := make([]*batchRun, 0, len(s.batches))
	for id, b := range s.batches {
		if b.finished == nil {
			continue
		}
		if b.finished.Before(cutoff) {
			delete(s.batches, id)
			continue
		}
		finished = append(finished, b)
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
	for _, b := range finished[:n] {
		delete(s.batches, b.id)
	}
}

// HTTP handlers.

func (s *Service) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st, err := s.SubmitBatch(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, ErrJournal):
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		w.Header().Set("Location", "/v1/batches/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Service) handleBatches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Batches []BatchStatus `json:"batches"`
	}{Batches: s.Batches()})
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Batch(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such batch"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.CancelBatch(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such batch"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
