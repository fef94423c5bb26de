package service

// Tests for the POST /v1/batches surface: lifecycle over HTTP, admission
// control shared with the job queue, cancellation, journal events, and
// crash recovery via Recover.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (int, BatchStatus, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st BatchStatus
	_ = json.Unmarshal(raw, &st)
	return resp.StatusCode, st, string(raw)
}

// waitBatch polls until the batch reaches a terminal state.
func waitBatch(t *testing.T, ts *httptest.Server, id string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st BatchStatus
		if code := getJSON(t, ts, "/v1/batches/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("batch %s did not finish", id)
	return BatchStatus{}
}

func TestBatchHTTPLifecycle(t *testing.T) {
	svc, ts := newTestServer(t, hookConfig(t, 2, 8, nil))
	code, st, raw := postBatch(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	if st.ID == "" || st.Total != 4 || len(st.Dies) != 4 {
		t.Fatalf("submit status = %+v", st)
	}
	fin := waitBatch(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("batch ended %s (%s)", fin.State, fin.Error)
	}
	if fin.Completed != 4 || fin.Failed != 0 {
		t.Fatalf("progress = %d done / %d failed, want 4/0", fin.Completed, fin.Failed)
	}
	for _, d := range fin.Dies {
		if d.State != BatchDieDone {
			t.Fatalf("die %s state %s: %s", d.Die, d.State, d.Error)
		}
		if d.ReusedFFs == 0 && d.AdditionalCells == 0 {
			t.Fatalf("die %s has no plan numbers", d.Die)
		}
	}

	var list struct {
		Batches []BatchStatus `json:"batches"`
	}
	if code := getJSON(t, ts, "/v1/batches", &list); code != http.StatusOK || len(list.Batches) != 1 {
		t.Fatalf("list: code %d, %d batches", code, len(list.Batches))
	}

	m := svc.Snapshot()
	if m.Batches.Done != 1 || m.Batches.Active != 0 {
		t.Errorf("batch counters = %+v", m.Batches)
	}
	if m.Batches.Dies.Count != 1 {
		t.Errorf("batch.dies histogram count = %d, want 1", m.Batches.Dies.Count)
	}
	if m.LatencyMS["batch"].Count != 1 || m.LatencyMS["batch"].OK != 1 {
		t.Errorf("batch latency histogram = %+v", m.LatencyMS["batch"])
	}
	// The four distinct die keys all went through the shared cache.
	if m.Cache.Misses != 4 {
		t.Errorf("cache misses = %d, want 4", m.Cache.Misses)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, hookConfig(t, 1, 4, nil))
	for _, body := range []string{
		`{}`,
		`{"all":true,"circuit":"b11"}`,
		`{"circuit":"nope"}`,
		`{"profiles":["b11/9"]}`,
		`{"all":true,"method":"nope"}`,
		`{"all":true,"timing":"sideways"}`,
		`{"all":true,"max_in_flight":9}`,
		`{"all":true,"timeout_ms":-1}`,
	} {
		if code, _, raw := postBatch(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, code, raw)
		}
	}
	if code := getJSON(t, ts, "/v1/batches/b-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown batch: status %d, want 404", code)
	}
}

// TestBatchQueueBackpressure: batches share the job queue's admission
// control, so a saturated queue bounces them with 429.
func TestBatchQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	var once bool
	svc, ts := newTestServer(t, hookConfig(t, 1, 1, func(ctx context.Context, spec DieSpec) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}))
	defer func() {
		if !once {
			close(release)
		}
	}()

	// One job occupies the single worker, one fills the single queue slot.
	if code, _, raw := postJob(t, ts, `{"profile":"b11/0"}`); code != http.StatusAccepted {
		t.Fatalf("job 1: %d %s", code, raw)
	}
	if code, _, raw := postJob(t, ts, `{"profile":"b11/1"}`); code != http.StatusAccepted {
		t.Fatalf("job 2: %d %s", code, raw)
	}
	code, _, _ := postBatch(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch under backpressure: status %d, want 429", code)
	}
	if got := svc.Metrics().BatchesRejected.Load(); got != 1 {
		t.Errorf("BatchesRejected = %d, want 1", got)
	}
	close(release)
	once = true
}

func TestBatchCancelQueued(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, hookConfig(t, 1, 8, func(ctx context.Context, spec DieSpec) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}))
	defer close(release)

	// Occupy the single worker so the batch stays queued.
	if code, _, raw := postJob(t, ts, `{"profile":"b11/0"}`); code != http.StatusAccepted {
		t.Fatalf("blocker job: %d %s", code, raw)
	}
	code, st, raw := postBatch(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch: %d %s", code, raw)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/batches/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateCanceled {
		t.Fatalf("canceled batch state = %s", got.State)
	}
	for _, d := range got.Dies {
		if d.State != BatchDiePending {
			t.Fatalf("die %s state = %s, want pending (never ran)", d.Die, d.State)
		}
	}
}

// TestBatchJournalEvents pins the durable write order on the batch path:
// submit journaled before the run can finish, finish journaled after.
func TestBatchJournalEvents(t *testing.T) {
	jl := &memJournal{}
	cfg := hookConfig(t, 2, 8, nil)
	cfg.Journal = jl
	_, ts := newTestServer(t, cfg)
	code, st, raw := postBatch(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if !jl.has("bsubmit " + st.ID) {
		t.Fatal("submit was accepted before the journal recorded it")
	}
	fin := waitBatch(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("batch ended %s", fin.State)
	}
	if !jl.has("bfinish " + st.ID + " " + StateDone) {
		t.Fatalf("no terminal journal record; events: %v", jl.events)
	}
}

// TestBatchRecovery: pending batches from the WAL re-run to completion,
// finished ones are restored for pollers, and the id sequence advances
// past everything the log had seen.
func TestBatchRecovery(t *testing.T) {
	svc, ts := newTestServer(t, hookConfig(t, 2, 8, nil))
	requeued, restored, err := svc.Recover(Recovery{
		Batches: []RecoveredBatch{
			{ID: "b-000002", Req: BatchRequest{Circuit: "b11"}, State: StateDone},
			{ID: "b-000005", Req: BatchRequest{Circuit: "b11"}},
		},
	})
	if err != nil || requeued != 1 || restored != 1 {
		t.Fatalf("Recover = (%d, %d, %v), want (1, 1, nil)", requeued, restored, err)
	}
	st0, ok := svc.Batch("b-000002")
	if !ok || st0.State != StateDone {
		t.Fatalf("restored batch = %+v, %v", st0, ok)
	}
	// Per-die results are not journaled, but a restored done batch must
	// still read as fully completed, not "done, 0 of 4".
	if st0.Completed != st0.Total || st0.Total != 4 {
		t.Fatalf("restored batch progress = %d/%d, want 4/4", st0.Completed, st0.Total)
	}
	for _, d := range st0.Dies {
		if d.State != BatchDieDone {
			t.Fatalf("restored die %s state = %s", d.Die, d.State)
		}
	}
	if fin := waitBatch(t, ts, "b-000005"); fin.State != StateDone || fin.Completed != 4 {
		t.Fatalf("replayed batch ended %s with %d dies done", fin.State, fin.Completed)
	}
	// New ids must not collide with recovered ones.
	code, st, raw := postBatch(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d %s", code, raw)
	}
	if st.ID <= "b-000005" {
		t.Fatalf("post-recovery id %s did not advance past the watermark", st.ID)
	}
}
