package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wcm3d/internal/service"
)

func openTest(t *testing.T, dir string, opts Options) (*Log, service.Recovery) {
	t.Helper()
	opts.NoSync = true
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func reqFor(profile string) service.JobRequest {
	return service.JobRequest{Profile: profile, Seed: 1}
}

// findJob pulls one recovered job by id.
func findJob(rec service.Recovery, id string) (service.RecoveredJob, bool) {
	for _, j := range rec.Jobs {
		if j.ID == id {
			return j, true
		}
	}
	return service.RecoveredJob{}, false
}

func TestRoundTripRecovery(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTest(t, dir, Options{})
	if len(rec.Jobs) != 0 || rec.MaxSeq != 0 {
		t.Fatalf("fresh log should recover nothing, got %+v", rec)
	}

	// Four lifecycles: finished, canceled-before-start, pending, orphaned.
	rep := &service.Report{}
	for id, req := range map[string]service.JobRequest{
		"j-000001": reqFor("b11/0"), "j-000002": reqFor("b11/1"),
		"j-000003": reqFor("b11/2"), "j-000004": reqFor("b11/3"),
	} {
		if err := l.Submit(id, req); err != nil {
			t.Fatalf("Submit(%s): %v", id, err)
		}
	}
	if err := l.Start("j-000001"); err != nil {
		t.Fatal(err)
	}
	if err := l.Finish("j-000001", service.StateDone, "", rep); err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel("j-000002"); err != nil {
		t.Fatal(err)
	}
	if err := l.Start("j-000004"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec = openTest(t, dir, Options{})
	if len(rec.Jobs) != 4 {
		t.Fatalf("recovered %d jobs, want 4: %+v", len(rec.Jobs), rec.Jobs)
	}
	if rec.MaxSeq != 4 {
		t.Fatalf("MaxSeq = %d, want 4", rec.MaxSeq)
	}
	if rec.Corrupted != 0 {
		t.Fatalf("Corrupted = %d, want 0", rec.Corrupted)
	}
	j1, _ := findJob(rec, "j-000001")
	if j1.State != service.StateDone || j1.Result == nil || j1.Orphaned {
		t.Fatalf("j-000001 = %+v, want restored done with result", j1)
	}
	if j1.StartedAt.IsZero() || j1.FinishedAt.IsZero() || j1.SubmittedAt.IsZero() {
		t.Fatalf("j-000001 lost its timestamps: %+v", j1)
	}
	j2, _ := findJob(rec, "j-000002")
	if j2.State != service.StateCanceled || j2.Orphaned {
		t.Fatalf("j-000002 = %+v, want restored canceled", j2)
	}
	j3, _ := findJob(rec, "j-000003")
	if j3.State != "" || j3.Orphaned {
		t.Fatalf("j-000003 = %+v, want pending (re-queue, not orphaned)", j3)
	}
	if j3.Req.Profile != "b11/2" {
		t.Fatalf("j-000003 request not preserved: %+v", j3.Req)
	}
	j4, _ := findJob(rec, "j-000004")
	if j4.State != "" || !j4.Orphaned {
		t.Fatalf("j-000004 = %+v, want orphaned (started, no finish)", j4)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{SegmentBytes: 256})
	for i := 1; i <= 40; i++ {
		if err := l.Submit(jid(i), reqFor("b11/0")); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openTest(t, dir, Options{})
	if len(rec.Jobs) != 40 {
		t.Fatalf("recovered %d jobs across segments, want 40", len(rec.Jobs))
	}
}

func TestCompactionDropsExpiredKeepsWatermark(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	old := time.Now().Add(-2 * time.Hour).UnixNano()
	req := reqFor("b11/0")
	// A job finished two hours ago (past the 1h default retention) and a
	// live pending one. Timestamps are forged via the internal append so
	// the test does not have to sleep through a retention window.
	for _, r := range []record{
		{T: typeSubmit, ID: "j-000007", At: old, Req: &req},
		{T: typeStart, ID: "j-000007", At: old},
		{T: typeFinish, ID: "j-000007", At: old, State: service.StateDone},
		{T: typeSubmit, ID: "j-000002", At: time.Now().UnixNano(), Req: &req},
	} {
		if err := l.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openTest(t, dir, Options{})
	if _, ok := findJob(rec, "j-000007"); ok {
		t.Fatalf("expired job survived compaction: %+v", rec.Jobs)
	}
	if _, ok := findJob(rec, "j-000002"); !ok {
		t.Fatalf("live job lost in compaction: %+v", rec.Jobs)
	}
	// The watermark must remember the compacted-away id so the service
	// never reissues j-000007.
	if rec.MaxSeq != 7 {
		t.Fatalf("MaxSeq = %d, want 7 (watermark past compacted job)", rec.MaxSeq)
	}

	// And it must survive a further compaction cycle via the mark record
	// even with zero live jobs left.
	l2, _ := openTest(t, dir, Options{Retention: time.Nanosecond})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openTest(t, dir, Options{})
	if rec.MaxSeq != 7 {
		t.Fatalf("MaxSeq after second compaction = %d, want 7", rec.MaxSeq)
	}
}

func TestCompactionShrinksLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{SegmentBytes: 512})
	for i := 1; i <= 50; i++ {
		if err := l.Submit(jid(i), reqFor("b11/0")); err != nil {
			t.Fatal(err)
		}
		if err := l.Finish(jid(i), service.StateFailed, "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	before := logBytes(t, dir)
	// All jobs are finished; an aggressive retention compacts them away.
	l.opts.Retention = time.Nanosecond
	time.Sleep(10 * time.Millisecond)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	after := logBytes(t, dir)
	if after >= before/2 {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("compaction should leave one segment, got %v", segs)
	}
	// The log must still accept appends after compacting.
	if err := l.Submit(jid(60), reqFor("b11/0")); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openTest(t, dir, Options{})
	if _, ok := findJob(rec, jid(60)); !ok {
		t.Fatalf("post-compaction append lost: %+v", rec.Jobs)
	}
}

func jid(n int) string { return fmt.Sprintf("j-%06d", n) }

func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range segs {
		st, err := os.Stat(filepath.Join(dir, segName(n)))
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// TestReplayOrdersIDsPastSixDigits: ids are zero-padded to six digits, so
// past j-999999 their string order is not their submission order. Replay
// and compaction must hand jobs and batches back in sequence order, which
// is the order the service re-queues them in.
func TestReplayOrdersIDsPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	breq := service.BatchRequest{Circuit: "b11", Seed: 1}
	// Jobs and batches share one sequence counter.
	for _, n := range []int{999997, 999999, 1000001, 1000003} {
		if err := l.Submit(jid(n), reqFor("b11/0")); err != nil {
			t.Fatal(err)
		}
		if err := l.SubmitBatch(fmt.Sprintf("b-%06d", n+1), breq); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantJobs := []string{"j-999997", "j-999999", "j-1000001", "j-1000003"}
	wantBatches := []string{"b-999998", "b-1000000", "b-1000002", "b-1000004"}
	// The first reopen replays the raw segment and compacts it; the second
	// replays the compacted segment.
	for pass := 0; pass < 2; pass++ {
		l, rec := openTest(t, dir, Options{})
		var jobs, batches []string
		for _, j := range rec.Jobs {
			jobs = append(jobs, j.ID)
		}
		for _, b := range rec.Batches {
			batches = append(batches, b.ID)
		}
		if fmt.Sprint(jobs) != fmt.Sprint(wantJobs) {
			t.Errorf("pass %d: job replay order %v, want %v", pass, jobs, wantJobs)
		}
		if fmt.Sprint(batches) != fmt.Sprint(wantBatches) {
			t.Errorf("pass %d: batch replay order %v, want %v", pass, batches, wantBatches)
		}
		if rec.MaxSeq != 1000004 {
			t.Errorf("pass %d: MaxSeq = %d, want 1000004", pass, rec.MaxSeq)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
