package service

// Tests for the durability and cluster seams: journal write-path
// semantics, crash recovery via Recover, the jobs-list cursor, the
// abandoned-jobs drain contract, and the steal/complete/reclaim
// lifecycle — all against an in-memory fake journal so they need no
// real WAL on disk.

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// memJournal is an in-memory service.Journal recording every call.
type memJournal struct {
	mu         sync.Mutex
	events     []string
	failSubmit bool
}

func (m *memJournal) record(ev string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = append(m.events, ev)
}

func (m *memJournal) Submit(id string, req JobRequest) error {
	if m.failSubmit {
		return errors.New("disk full")
	}
	m.record("submit " + id)
	return nil
}
func (m *memJournal) Start(id string) error { m.record("start " + id); return nil }
func (m *memJournal) Finish(id string, state, errMsg string, result *Report) error {
	m.record("finish " + id + " " + state)
	return nil
}
func (m *memJournal) Cancel(id string) error { m.record("cancel " + id); return nil }
func (m *memJournal) Replan(id string, delta ReplanRequest) error {
	m.record("replan " + id)
	return nil
}
func (m *memJournal) SubmitBatch(id string, req BatchRequest) error {
	if m.failSubmit {
		return errors.New("disk full")
	}
	m.record("bsubmit " + id)
	return nil
}
func (m *memJournal) FinishBatch(id string, state, errMsg string) error {
	m.record("bfinish " + id + " " + state)
	return nil
}

func (m *memJournal) has(ev string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.events {
		if e == ev {
			return true
		}
	}
	return false
}

func (m *memJournal) countPrefix(prefix string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

func TestJournalRecordsLifecycle(t *testing.T) {
	jn := &memJournal{}
	cfg := hookConfig(t, 2, 8, nil)
	cfg.Journal = jn
	_, ts := newTestServer(t, cfg)

	code, st, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job ended %q", fin.State)
	}
	for _, ev := range []string{"submit " + st.ID, "start " + st.ID, "finish " + st.ID + " done"} {
		if !jn.has(ev) {
			t.Fatalf("journal missing %q; events: %v", ev, jn.events)
		}
	}
}

func TestJournalFailureRefusesSubmission(t *testing.T) {
	jn := &memJournal{failSubmit: true}
	cfg := hookConfig(t, 1, 4, nil)
	cfg.Journal = jn
	svc, ts := newTestServer(t, cfg)

	code, _, raw := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("unjournalable submission got %d (%s), want 500", code, raw)
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Fatalf("refused job left in table: %d entries", n)
	}
	if got := svc.Metrics().WALErrors.Load(); got == 0 {
		t.Fatal("WALErrors not bumped")
	}
}

func TestRecoverRestoresAndRequeues(t *testing.T) {
	jn := &memJournal{}
	cfg := hookConfig(t, 2, 8, nil)
	cfg.Journal = jn
	svc, ts := newTestServer(t, cfg)

	done := time.Now().Add(-time.Minute)
	rec := Recovery{
		MaxSeq: 9,
		Jobs: []RecoveredJob{
			{ID: "j-000003", Req: JobRequest{Profile: "b11/0", Seed: 1}, State: StateDone,
				Result: &Report{}, SubmittedAt: done.Add(-time.Second), FinishedAt: done},
			{ID: "j-000005", Req: JobRequest{Profile: "b11/0", Seed: 1}},
			{ID: "j-000007", Req: JobRequest{Profile: "b11/0", Seed: 1}, Orphaned: true},
		},
	}
	requeued, restored, err := svc.Recover(rec)
	if err != nil || requeued != 2 || restored != 1 {
		t.Fatalf("Recover = (%d, %d, %v), want (2, 1, nil)", requeued, restored, err)
	}

	// The finished job is queryable with its old outcome, not re-run.
	if st, ok := svc.Job("j-000003"); !ok || st.State != StateDone || st.Result == nil {
		t.Fatalf("restored job: %+v ok=%v", st, ok)
	}
	// Pending and orphaned jobs re-run to completion under their old ids.
	for _, id := range []string{"j-000005", "j-000007"} {
		if st := waitJob(t, ts, id); st.State != StateDone {
			t.Fatalf("recovered job %s ended %q", id, st.State)
		}
	}
	if got := svc.Metrics().JobsRecovered.Load(); got != 3 {
		t.Fatalf("JobsRecovered = %d, want 3", got)
	}
	// New submissions must not collide with any recovered or compacted id:
	// the next id comes after the MaxSeq=9 watermark.
	_, st, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	if st.ID != "j-000010" {
		t.Fatalf("post-recovery id %q, want j-000010", st.ID)
	}
}

// TestIDsOrderPastSixDigits: ids are zero-padded to six digits only, so
// as strings "j-1000000" < "j-999999". Listings, pages and the cursor must
// follow the numeric sequence, or a poller tailing the cursor past
// j-999999 stalls for good.
func TestIDsOrderPastSixDigits(t *testing.T) {
	svc, ts := newTestServer(t, hookConfig(t, 2, 8, nil))
	if _, _, err := svc.Recover(Recovery{MaxSeq: 999_998}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		_, st, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJob(t, ts, id)
	}
	want := []string{"j-999999", "j-1000000", "j-1000001"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("submitted ids %v, want %v", ids, want)
	}
	idsOf := func(js []JobStatus) []string {
		var out []string
		for _, j := range js {
			out = append(out, j.ID)
		}
		return out
	}
	if got := idsOf(svc.Jobs()); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Jobs() = %v, want %v", got, want)
	}
	if got := idsOf(svc.JobsFiltered("", 1)); fmt.Sprint(got) != fmt.Sprint(want[2:]) {
		t.Errorf("JobsFiltered(limit 1) = %v, want the newest %v", got, want[2:])
	}
	page, last := svc.JobsPage("", 0, "j-999999")
	if got := idsOf(page); fmt.Sprint(got) != fmt.Sprint(want[1:]) || last != "j-1000001" {
		t.Errorf("JobsPage after j-999999 = %v (last %q), want %v", got, last, want[1:])
	}

	// Batches draw from the same sequence.
	bsvc, bts := newTestServer(t, hookConfig(t, 2, 8, nil))
	if _, _, err := bsvc.Recover(Recovery{MaxSeq: 999_998}); err != nil {
		t.Fatal(err)
	}
	var bids []string
	for i := 0; i < 2; i++ {
		code, st, raw := postBatch(t, bts, `{"circuit":"b11"}`)
		if code != http.StatusAccepted {
			t.Fatalf("batch submit: status %d: %s", code, raw)
		}
		bids = append(bids, st.ID)
	}
	for _, id := range bids {
		waitBatch(t, bts, id)
	}
	var got []string
	for _, b := range bsvc.Batches() {
		got = append(got, b.ID)
	}
	if wantB := []string{"b-999999", "b-1000000"}; fmt.Sprint(got) != fmt.Sprint(wantB) {
		t.Errorf("Batches() = %v, want %v", got, wantB)
	}
}

func TestShutdownAbandonsJobsForReplay(t *testing.T) {
	jn := &memJournal{}
	block := make(chan struct{})
	var once sync.Once
	cfg := hookConfig(t, 1, 8, func(ctx context.Context, spec DieSpec) error {
		select { // first job wedges the single worker; the rest stay queued
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	cfg.Journal = jn
	svc := New(cfg)
	defer once.Do(func() { close(block) })

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := svc.Submit(JobRequest{Profile: "b11/0", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep, _ := svc.Shutdown(ctx)
	if len(rep.Abandoned) != 3 {
		t.Fatalf("Abandoned = %v, want all of %v", rep.Abandoned, ids)
	}
	// The drain contract: abandoned jobs are reported canceled to clients
	// but their terminal transition never reaches the journal, so a WAL
	// replays them as pending on the next boot.
	for _, id := range ids {
		if jn.countPrefix("finish "+id) != 0 || jn.countPrefix("cancel "+id) != 0 {
			t.Fatalf("abandoned job %s was finalized in the journal: %v", id, jn.events)
		}
		if !jn.has("submit " + id) {
			t.Fatalf("job %s missing its submit record", id)
		}
	}
}

func TestJobsCursorPagination(t *testing.T) {
	cfg := hookConfig(t, 2, 16, nil)
	_, ts := newTestServer(t, cfg)
	var ids []string
	for i := 0; i < 7; i++ {
		_, st, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJob(t, ts, id)
	}

	type page struct {
		Jobs []JobStatus `json:"jobs"`
		Next string      `json:"next"`
	}
	// Walk the whole listing two at a time from the "0" bootstrap cursor.
	var walked []string
	cursor := "0"
	for i := 0; i < 10; i++ {
		var p page
		if code := getJSON(t, ts, "/v1/jobs?limit=2&cursor="+cursor, &p); code != http.StatusOK {
			t.Fatalf("page %d: status %d", i, code)
		}
		if len(p.Jobs) == 0 {
			// Drained: the empty page echoes the cursor back for tailing.
			if p.Next != cursor {
				t.Fatalf("empty page rewrote cursor: %q -> %q", cursor, p.Next)
			}
			break
		}
		if len(p.Jobs) > 2 {
			t.Fatalf("page over limit: %d jobs", len(p.Jobs))
		}
		for _, j := range p.Jobs {
			walked = append(walked, j.ID)
		}
		if p.Next == "" {
			t.Fatal("non-empty page without next cursor")
		}
		cursor = p.Next
	}
	if fmt.Sprint(walked) != fmt.Sprint(ids) {
		t.Fatalf("cursor walk %v != submissions %v", walked, ids)
	}

	// A state filter composes with the cursor.
	var p page
	if code := getJSON(t, ts, "/v1/jobs?cursor=0&state=done", &p); code != http.StatusOK || len(p.Jobs) != 7 {
		t.Fatalf("state filter via cursor: code %d, %d jobs", code, len(p.Jobs))
	}
	// Malformed cursors are a client error, not a panic or a full listing.
	if code := getJSON(t, ts, "/v1/jobs?cursor=%21%21not-base64", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed cursor: status %d, want 400", code)
	}
	bogus := base64.RawURLEncoding.EncodeToString([]byte("v2:whatever"))
	if code := getJSON(t, ts, "/v1/jobs?cursor="+bogus, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong-version cursor: status %d, want 400", code)
	}
	// Legacy mode (no cursor) now carries a resume point too.
	if code := getJSON(t, ts, "/v1/jobs?limit=3", &p); code != http.StatusOK {
		t.Fatalf("legacy list: %d", code)
	}
	if len(p.Jobs) != 3 || p.Jobs[0].ID != ids[4] {
		t.Fatalf("legacy limit semantics changed: got %d jobs starting %s", len(p.Jobs), p.Jobs[0].ID)
	}
	if p.Next == "" {
		t.Fatal("legacy list missing next cursor")
	}
}

func TestStealCompleteReclaim(t *testing.T) {
	jn := &memJournal{}
	block := make(chan struct{})
	var unblock sync.Once
	cfg := hookConfig(t, 1, 8, func(ctx context.Context, spec DieSpec) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	cfg.Journal = jn
	svc, ts := newTestServer(t, cfg)
	defer unblock.Do(func() { close(block) })

	// One job wedges the worker, three more queue up behind it.
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := svc.Submit(JobRequest{Profile: "b11/0", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitState := func(id, state string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, _ := svc.Job(id); st.State == state {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		st, _ := svc.Job(id)
		t.Fatalf("job %s stuck in %q, want %q", id, st.State, state)
	}
	waitState(ids[0], StateRunning)

	stolen := svc.StealQueued(2, "thief-a")
	if len(stolen) != 2 || stolen[0].ID != ids[1] || stolen[1].ID != ids[2] {
		t.Fatalf("stole %+v, want the two oldest queued (%s, %s)", stolen, ids[1], ids[2])
	}
	if st, _ := svc.Job(ids[1]); st.State != StateRunning {
		t.Fatalf("stolen job state %q, want running", st.State)
	}
	// The handout is journaled so a crash replays it as orphaned.
	if !jn.has("start " + ids[1]) {
		t.Fatalf("steal of %s not journaled: %v", ids[1], jn.events)
	}
	if svc.QueueDepth() != 1 {
		t.Fatalf("QueueDepth = %d, want 1 (one job left queued)", svc.QueueDepth())
	}

	// Thief reports ids[1] done; a duplicate or late report is dropped.
	if !svc.CompleteStolen(ids[1], StateDone, "", &Report{}) {
		t.Fatal("first completion not applied")
	}
	if svc.CompleteStolen(ids[1], StateFailed, "late dup", nil) {
		t.Fatal("duplicate completion applied over a terminal state")
	}
	if st, _ := svc.Job(ids[1]); st.State != StateDone || st.Result == nil {
		t.Fatalf("completed stolen job: %+v", st)
	}
	if !jn.has("finish " + ids[1] + " done") {
		t.Fatalf("stolen completion not journaled: %v", jn.events)
	}

	// The thief dies holding ids[2]: reclaim re-queues it locally, and it
	// finishes once the worker frees up.
	if n := svc.ReclaimStolen("thief-a"); n != 1 {
		t.Fatalf("reclaimed %d, want 1", n)
	}
	waitState(ids[2], StateQueued)
	unblock.Do(func() { close(block) }) // free the wedged worker
	if st := waitJob(t, ts, ids[2]); st.State != StateDone {
		t.Fatalf("reclaimed job ended %q", st.State)
	}
	if got := svc.Metrics().JobsStolen.Load(); got != 2 {
		t.Fatalf("JobsStolen = %d, want 2", got)
	}
	if got := svc.Metrics().JobsReclaimed.Load(); got != 1 {
		t.Fatalf("JobsReclaimed = %d, want 1", got)
	}
}

func TestRunStolenSkipsJournalAndNotifies(t *testing.T) {
	jn := &memJournal{}
	cfg := hookConfig(t, 2, 8, nil)
	cfg.Journal = jn
	svc, _ := newTestServer(t, cfg)

	got := make(chan JobStatus, 1)
	st, err := svc.RunStolen(JobRequest{Profile: "b11/0", Seed: 1}, func(s JobStatus) { got <- s })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case fin := <-got:
		if fin.State != StateDone || fin.ID != st.ID {
			t.Fatalf("completion callback got %+v", fin)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("completion callback never fired")
	}
	// A remote-origin job belongs to the victim's WAL, not ours.
	if jn.countPrefix("submit "+st.ID) != 0 || jn.countPrefix("finish "+st.ID) != 0 {
		t.Fatalf("remote-origin job leaked into the local journal: %v", jn.events)
	}
}

// fakeCluster is a canned ClusterView for exercising the HTTP layer
// without real peers.
type fakeCluster struct {
	selfID   string
	ownerURL string
	self     bool
}

func (f *fakeCluster) Route(name string, seed int64) (string, bool) { return f.ownerURL, f.self }
func (f *fakeCluster) Info() ClusterInfo {
	return ClusterInfo{
		Self: f.selfID,
		Peers: []PeerInfo{
			{ID: f.selfID, Self: true, Alive: true},
			{ID: "n2", URL: f.ownerURL, Alive: true},
		},
		ShardTokens: map[string]int{f.selfID: 64, "n2": 64},
	}
}

func TestClusterHTTPSurface(t *testing.T) {
	fc := &fakeCluster{selfID: "n1", ownerURL: "http://peer.example:9", self: false}
	cfg := hookConfig(t, 1, 4, nil)
	svc := New(cfg)
	svc.AttachCluster(fc)
	ts := newClusterTestServer(t, svc)

	// Submissions for a die key owned elsewhere are 307-redirected with
	// the method-preserving Location of the owner.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Post(ts.URL+"/v1/jobs?verify=1", "application/json",
		strings.NewReader(`{"profile":"b11/0","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owned submission: %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://peer.example:9/v1/jobs?verify=1" {
		t.Fatalf("Location = %q", loc)
	}
	// An invalid request fails validation locally instead of bouncing
	// around the cluster.
	resp, err = noRedirect.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request: %d, want 400", resp.StatusCode)
	}

	// Owned keys are served locally.
	fc.self = true
	code, st, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("owned submission: %d", code)
	}
	waitJob(t, ts, st.ID)

	// The cluster endpoints exist and healthz carries the membership view.
	var info ClusterInfo
	if code := getJSON(t, ts, "/v1/cluster", &info); code != http.StatusOK || info.Self != "n1" {
		t.Fatalf("GET /v1/cluster: %d %+v", code, info)
	}
	if len(info.ShardTokens) != 2 {
		t.Fatalf("shard map: %+v", info.ShardTokens)
	}
	var hz struct {
		Status  string `json:"status"`
		Cluster *struct {
			Self  string `json:"self"`
			Alive int    `json:"alive"`
			Total int    `json:"total"`
		} `json:"cluster"`
	}
	if code := getJSON(t, ts, "/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Cluster == nil || hz.Cluster.Self != "n1" || hz.Cluster.Alive != 2 || hz.Cluster.Total != 2 {
		t.Fatalf("healthz cluster view: %+v", hz.Cluster)
	}
}

// newClusterTestServer mirrors newTestServer for a pre-built Service (the
// cluster view must attach before Handler is called).
func newClusterTestServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = svc.Shutdown(ctx)
		ts.Close()
	})
	return ts
}
