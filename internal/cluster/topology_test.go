package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// topologyAdmin serves a mutable /topology document the way
// cmd/lsra-cluster's admin endpoint does.
type topologyAdmin struct {
	infos atomic.Value // []NodeInfo
	fail  atomic.Bool  // when set, answer 500 instead
	polls atomic.Int64 // requests answered so far
}

func (a *topologyAdmin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Counted once the answer is decided, so a caller that sees the
	// count rise knows which document (or failure) that poll received.
	defer a.polls.Add(1)
	if a.fail.Load() {
		http.Error(w, "admin unavailable", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	infos, _ := a.infos.Load().([]NodeInfo)
	_ = json.NewEncoder(w).Encode(infos)
}

func (a *topologyAdmin) set(urls []string) {
	infos := make([]NodeInfo, len(urls))
	for i, u := range urls {
		infos[i] = NodeInfo{Name: "node-" + u, URL: u}
	}
	a.infos.Store(infos)
}

func waitForNodes(t *testing.T, cl *Client, want []string) {
	t.Helper()
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := cl.Nodes()
		sort.Strings(got)
		if reflect.DeepEqual(got, sorted) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node table never became %v (have %v)", sorted, cl.Nodes())
}

// TestClientTopologyPolling verifies the timer-driven half of the
// SetNodes plumbing: a client created against a stale node table
// converges onto what the admin /topology endpoint publishes — first
// via the immediate priming poll, then again after the table changes.
func TestClientTopologyPolling(t *testing.T) {
	admin := &topologyAdmin{}
	admin.set([]string{"http://a:1", "http://b:2"})
	srv := httptest.NewServer(admin)
	defer srv.Close()

	cl := NewClient(ClientConfig{
		Nodes:            []string{"http://stale:9"},
		TopologyURL:      srv.URL,
		TopologyInterval: 10 * time.Millisecond,
	})
	defer cl.Close()
	waitForNodes(t, cl, []string{"http://a:1", "http://b:2"})

	// A membership change propagates on the next tick.
	admin.set([]string{"http://a:1", "http://c:3"})
	waitForNodes(t, cl, []string{"http://a:1", "http://c:3"})
	if st := cl.Stats(); st.TopologyRefreshes == 0 {
		t.Error("refreshes happened but TopologyRefreshes is 0")
	}
}

// TestClientTopologyRefreshKeepsTableOnFailure pins the safety rule: a
// failing or empty admin response must leave the working ring alone.
func TestClientTopologyRefreshKeepsTableOnFailure(t *testing.T) {
	admin := &topologyAdmin{}
	admin.set(nil) // empty table
	srv := httptest.NewServer(admin)
	defer srv.Close()

	cl := NewClient(ClientConfig{Nodes: []string{"http://keep:1"}})
	cl.cfg.TopologyURL = srv.URL
	cl.refreshTopology() // empty response: rejected
	admin.fail.Store(true)
	cl.refreshTopology() // 500: rejected
	if got := cl.Nodes(); !reflect.DeepEqual(got, []string{"http://keep:1"}) {
		t.Fatalf("node table damaged by failed refreshes: %v", got)
	}
	if st := cl.Stats(); st.TopologyRefreshes != 0 {
		t.Errorf("failed refreshes counted: %d", st.TopologyRefreshes)
	}
}

// TestClientFailoverTriggersRefresh exercises the second half of the
// fix: a streak of failovers kicks an immediate topology poll, so a
// client whose entire node table went stale recovers without waiting
// out the (here: one-hour) timer.
func TestClientFailoverTriggersRefresh(t *testing.T) {
	c := startCluster(t, 2, NodeConfig{})
	admin := &topologyAdmin{}
	admin.fail.Store(true) // priming poll must not rescue the client early
	srv := httptest.NewServer(admin)
	defer srv.Close()

	// Two dead addresses: every attempt fails, each failover bumps the
	// streak, and FailoverRefresh=1 kicks the poller on the first one.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cl := NewClient(ClientConfig{
		Nodes:            []string{dead.URL, dead.URL + "0"},
		MaxAttempts:      2,
		TopologyURL:      srv.URL,
		TopologyInterval: time.Hour,
		FailoverRefresh:  1,
	})
	defer cl.Close()

	// Wait out the asynchronous priming poll before the admin recovers:
	// if it landed after fail is cleared, it would load the live
	// topology before any failover happened.
	deadline := time.Now().Add(5 * time.Second)
	for admin.polls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never sent its priming topology poll")
		}
		time.Sleep(time.Millisecond)
	}
	admin.set(c.URLs())
	admin.fail.Store(false)
	job := testJobs(t, 1)[0]
	req := serve.AllocateRequest{Machine: testMachine, Program: job.Text}
	// The first request fails against the dead table but triggers the
	// refresh; once the poller lands the live topology, requests serve.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, _, err := cl.Allocate(context.Background(), req); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered onto the live topology")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitForNodes(t, cl, c.URLs())
	if st := cl.Stats(); st.TopologyRefreshes == 0 || st.Failovers == 0 {
		t.Errorf("expected failovers and a triggered refresh, got %+v", st)
	}
}
