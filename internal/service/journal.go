package service

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"time"
)

// ErrJournal wraps write-ahead-log failures on the submission path. A
// submission that cannot be made durable is refused outright — the HTTP
// layer maps it to 500 — because accepting it would silently downgrade the
// daemon's crash-recovery contract.
var ErrJournal = errors.New("service: journal write failed")

// Journal records job lifecycle transitions durably so they survive a
// crash. internal/wal provides the production implementation (a segmented,
// CRC-framed, fsync-per-record log); a nil Journal — the single-node
// default — disables durability and leaves the service byte-identical to
// its pre-WAL behavior.
//
// Implementations must be safe for concurrent use and should stamp their
// own record times. Submit must not return until the record is durable;
// Start/Finish/Cancel failures are surfaced to the caller but treated as
// non-fatal by the service (counted in wal_errors and logged).
type Journal interface {
	// Submit records an accepted job and its full request.
	Submit(id string, req JobRequest) error
	// Start records that a worker (local or a stealing peer) picked the
	// job up. A job with a start but no finish replays as orphaned.
	Start(id string) error
	// Finish records a terminal transition with its result (nil unless the
	// job succeeded).
	Finish(id string, state, errMsg string, result *Report) error
	// Cancel records a queued job canceled before it ever ran.
	Cancel(id string) error
	// Replan records one applied replan delta (POST
	// /v1/jobs/{id}/replan), so a restart can rebuild a job's repair
	// history: the deltas replay into RecoveredJob.Replans, and the
	// planner itself is rebuilt lazily by re-applying them on the next
	// replan. Only deltas that were actually executed are journaled — a
	// rejected delta changes nothing.
	Replan(id string, delta ReplanRequest) error
	// SubmitBatch records an accepted batch and its full request.
	SubmitBatch(id string, req BatchRequest) error
	// FinishBatch records a batch's terminal transition. Per-die progress
	// is deliberately not journaled: a replayed pending batch re-runs
	// from scratch, idempotently, against a warm die cache.
	FinishBatch(id string, state, errMsg string) error
}

// RecoveredJob is one job reconstructed from the write-ahead log at boot.
type RecoveredJob struct {
	ID  string
	Req JobRequest
	// Orphaned marks a job that was running (or stolen) when the process
	// died; it is re-queued for re-execution just like a pending one, the
	// flag only feeds the recovery log line.
	Orphaned bool
	// State is the terminal state for a job that finished before the
	// crash ("" for pending/orphaned jobs, which are re-queued). Finished
	// jobs are restored to the job table so clients polling their ids
	// still see the terminal outcome after a restart.
	State       string
	Err         string
	Result      *Report
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	// Replans is the job's applied TSV-repair delta history, in order.
	Replans []ReplanRequest
}

// Recovery is what a Journal replays at boot: every job not yet compacted
// away, plus the id watermark that keeps new ids from colliding with ones
// the log has already handed out (including compacted ones).
type Recovery struct {
	Jobs []RecoveredJob
	// Batches holds batch sweeps reconstructed from the log.
	Batches []RecoveredBatch
	// MaxSeq is the highest numeric job-id suffix the log has ever seen.
	MaxSeq int
	// Corrupted counts log segments that ended in a torn or corrupt
	// record during replay (the damaged tail is discarded, earlier
	// records stand).
	Corrupted int
}

// jobSeq extracts the numeric suffix of a "j-%06d" job id (-1 if the id
// does not carry one).
func jobSeq(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// seqLess orders job and batch ids by their numeric sequence, then by the
// id itself. Ids are zero-padded to six digits only, so past j-999999 the
// string order would put newer ids before older ones.
func seqLess(a, b string) bool {
	if sa, sb := jobSeq(a), jobSeq(b); sa != sb {
		return sa < sb
	}
	return a < b
}

// Recover replays a journal's recovery state into the service: finished
// jobs are restored to the job table with their terminal outcome, pending
// and orphaned jobs are re-queued for execution under their original ids,
// and the id sequence is advanced past everything the log has seen. It
// returns how many jobs were re-queued and how many terminal jobs were
// restored. Call it once, after New and before serving traffic.
func (s *Service) Recover(rec Recovery) (requeued, restored int, err error) {
	var feed []*job
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0, ErrShuttingDown
	}
	if rec.MaxSeq > s.seq {
		s.seq = rec.MaxSeq
	}
	for _, r := range rec.Jobs {
		if _, dup := s.jobs[r.ID]; dup || r.ID == "" {
			continue
		}
		if n := jobSeq(r.ID); n > s.seq {
			s.seq = n
		}
		j, rerr := func() (*job, error) {
			s.mu.Unlock()
			defer s.mu.Lock()
			return s.resolve(r.Req)
		}()
		if rerr != nil {
			s.logf("wcmd: recovery: job %s request no longer valid, dropping: %v", r.ID, rerr)
			continue
		}
		j.id = r.ID
		j.submitted = r.SubmittedAt
		if j.submitted.IsZero() {
			j.submitted = time.Now()
		}
		if len(r.Replans) > 0 {
			// The repair history survives the restart; the planner itself
			// is rebuilt lazily by replaying it on the next replan.
			j.replans = append([]ReplanRequest(nil), r.Replans...)
			s.metrics.ReplansRecovered.Add(int64(len(r.Replans)))
		}
		if r.State != "" { // finished before the crash: restore, don't run
			j.state = r.State
			if r.Err != "" {
				j.err = errors.New(r.Err)
			}
			j.result = r.Result
			if !r.StartedAt.IsZero() {
				t := r.StartedAt
				j.started = &t
			}
			ft := r.FinishedAt
			if ft.IsZero() {
				ft = time.Now()
			}
			j.finished = &ft
			s.jobs[j.id] = j
			restored++
			s.metrics.JobsRecovered.Add(1)
			continue
		}
		j.state = StateQueued
		s.jobs[j.id] = j
		feed = append(feed, j)
		requeued++
		s.metrics.JobsRecovered.Add(1)
		s.metrics.JobsQueued.Add(1)
		if r.Orphaned {
			s.logf("wcmd: recovery: job %s was running at crash time, re-queued for re-execution", r.ID)
		}
	}
	s.mu.Unlock()
	if len(feed) > 0 {
		go s.feedRecovered(feed)
	}
	brq, brs := s.recoverBatches(rec.Batches)
	return requeued + brq, restored + brs, nil
}

// feedRecovered pushes recovered jobs into the bounded pool queue. The
// queue may be smaller than the backlog, so full-queue rejections are
// retried as workers drain it; the loop ends when every job is enqueued or
// the service shuts down (whatever is left stays journaled for the next
// boot).
func (s *Service) feedRecovered(feed []*job) {
	for _, j := range feed {
		j := j
		for {
			s.mu.Lock()
			state := j.state
			s.mu.Unlock()
			if state != StateQueued { // canceled while waiting for a slot
				break
			}
			err := s.pool.trySubmit(func(ctx context.Context) { s.runJob(ctx, j) })
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

// journalFinish writes a job's terminal record after the state transition
// committed. Callers must NOT hold s.mu (the journal fsyncs). Abandoned
// jobs (drain cut short) are deliberately not journaled so they replay as
// pending on the next boot.
func (s *Service) journalFinish(j *job) {
	if s.cfg.Journal == nil || j.remoteOrigin {
		return
	}
	s.mu.Lock()
	state, abandoned, started := j.state, j.abandoned, j.started != nil
	var errMsg string
	if j.err != nil {
		errMsg = j.err.Error()
	}
	rep := j.result
	s.mu.Unlock()
	if abandoned {
		return
	}
	var err error
	switch {
	case state == StateCanceled && !started:
		err = s.cfg.Journal.Cancel(j.id)
	case state == StateDone || state == StateFailed || state == StateCanceled:
		err = s.cfg.Journal.Finish(j.id, state, errMsg, rep)
	default:
		return
	}
	if err != nil {
		s.metrics.WALErrors.Add(1)
		s.logf("wcmd: journal finish %s: %v", j.id, err)
	}
}

// journalReplan records one applied replan delta; non-fatal on failure
// (like Start/Finish — the replan already executed, a lost record only
// costs replay fidelity after the next restart).
func (s *Service) journalReplan(id string, delta ReplanRequest) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Replan(id, delta); err != nil {
		s.metrics.WALErrors.Add(1)
		s.logf("wcmd: journal replan %s: %v", id, err)
	}
}

// journalStart records that a job began executing; non-fatal on failure.
func (s *Service) journalStart(id string) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Start(id); err != nil {
		s.metrics.WALErrors.Add(1)
		s.logf("wcmd: journal start %s: %v", id, err)
	}
}

// logf routes service log lines through Config.Logf (discarded when nil so
// library users and tests stay silent by default).
func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
