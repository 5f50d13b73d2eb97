package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/serve"
	"repro/internal/target"
)

// ClientConfig tunes a cluster Client. Only Nodes is required.
type ClientConfig struct {
	// Nodes are the node base URLs (http://host:port). SetNodes updates
	// the table later (join/leave).
	Nodes []string
	// Vnodes is the ring's virtual-node count; it must match the
	// cluster's (0 = DefaultVnodes, which the supervisor also uses).
	Vnodes int
	// MaxAttempts bounds how many distinct nodes one request may try,
	// owner included (0 = 3, clamped to the node count).
	MaxAttempts int
	// HedgeDelay, when positive, sends a second copy of a still-pending
	// request to the next node on the ring after this long; the first
	// answer wins. Cuts tail latency at the cost of duplicate work on
	// the slow tail.
	HedgeDelay time.Duration
	// Max429Retries bounds how often one node attempt re-sends after a
	// 429, honoring Retry-After each time (0 = 2).
	Max429Retries int
	// MaxRetryAfter caps the honored Retry-After sleep, so a hostile or
	// confused server cannot park the client (0 = 2s).
	MaxRetryAfter time.Duration
	// DownCooldown is how long a node that failed a request is skipped
	// in routing before being tried again (0 = 3s).
	DownCooldown time.Duration
	// HTTPClient overrides the transport (nil = a client with a 60s
	// overall timeout).
	HTTPClient *http.Client
	// TopologyURL, when set, is a cluster admin /topology endpoint (see
	// cmd/lsra-cluster) the client polls for the live node table; every
	// successful poll feeds SetNodes, so joins and leaves propagate
	// without restarting the client.
	TopologyURL string
	// TopologyInterval is the poll period (0 = 15s). Meaningful only
	// with TopologyURL.
	TopologyInterval time.Duration
	// FailoverRefresh triggers an immediate topology poll after this
	// many consecutive failovers without an intervening first-attempt
	// success — the signature of routing against a stale node table
	// (0 = 3). Meaningful only with TopologyURL.
	FailoverRefresh int
	// DisableBinary forces every request onto the JSON wire form. By
	// default the client parses request programs locally and posts
	// application/x-lsra-ir bodies (see serve.ContentTypeBinaryIR),
	// which skips the server's text parser.
	DisableBinary bool
}

// ClientStats counts a Client's routing behavior.
type ClientStats struct {
	// Requests counts Allocate calls; Failovers attempts moved to a
	// successor after a node failed; Hedges hedge copies sent; HedgeWins
	// hedge copies that answered first; Retries429 re-sends after a
	// 429 + Retry-After; Errors requests that exhausted every candidate.
	Requests   uint64 `json:"requests"`
	Failovers  uint64 `json:"failovers"`
	Hedges     uint64 `json:"hedges"`
	HedgeWins  uint64 `json:"hedge_wins"`
	Retries429 uint64 `json:"retries_429"`
	Errors     uint64 `json:"errors"`
	// TopologyRefreshes counts successful /topology polls that replaced
	// the node table (timer-driven and failover-triggered alike).
	TopologyRefreshes uint64 `json:"topology_refreshes"`
	// BinaryRequests counts node attempts posted in the binary wire
	// form (application/x-lsra-ir).
	BinaryRequests uint64 `json:"binary_requests"`
}

// Client is the cluster-aware allocation client: consistent-hash
// routing with failover, bounded 429 backoff, and optional hedged
// requests. Safe for concurrent use.
type Client struct {
	cfg  ClientConfig
	ring *Ring
	http *http.Client

	healthMu sync.Mutex
	downTil  map[string]time.Time

	// machCache memoizes target.Parse per machine spec so the binary
	// encoder does not re-derive the machine on every request.
	machMu    sync.Mutex
	machCache map[string]*target.Machine

	requests, failovers  atomic.Uint64
	hedges, hedgeWins    atomic.Uint64
	retries429, errorsCt atomic.Uint64
	binaryReqs           atomic.Uint64

	// Topology refresh loop state (nil/inert when TopologyURL is unset).
	refreshC    chan struct{} // non-blocking kick: poll now
	stopC       chan struct{}
	stopOnce    sync.Once
	pollerDone  chan struct{}
	consecFails atomic.Uint64 // consecutive failovers since the last owner hit
	refreshes   atomic.Uint64
}

// NewClient builds a Client over the given nodes.
func NewClient(cfg ClientConfig) *Client {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Max429Retries <= 0 {
		cfg.Max429Retries = 2
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 2 * time.Second
	}
	if cfg.DownCooldown <= 0 {
		cfg.DownCooldown = 3 * time.Second
	}
	c := &Client{
		cfg:       cfg,
		ring:      NewRing(cfg.Vnodes),
		http:      cfg.HTTPClient,
		downTil:   map[string]time.Time{},
		machCache: map[string]*target.Machine{},
	}
	if c.http == nil {
		c.http = &http.Client{Timeout: 60 * time.Second}
	}
	for _, n := range cfg.Nodes {
		c.ring.Add(n)
	}
	if cfg.TopologyURL != "" {
		if c.cfg.TopologyInterval <= 0 {
			c.cfg.TopologyInterval = 15 * time.Second
		}
		if c.cfg.FailoverRefresh <= 0 {
			c.cfg.FailoverRefresh = 3
		}
		c.refreshC = make(chan struct{}, 1)
		c.stopC = make(chan struct{})
		c.pollerDone = make(chan struct{})
		go c.pollTopology()
	}
	return c
}

// Close stops the topology poller, if one is running. The client stays
// usable for requests afterwards (its node table just stops tracking
// the cluster). Safe to call multiple times; a no-op without a
// TopologyURL.
func (c *Client) Close() {
	if c.stopC == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.stopC) })
	<-c.pollerDone
}

// pollTopology keeps the node table synchronized with the cluster's
// admin /topology endpoint: a timer covers the steady state, and a
// non-blocking kick from the failover path (see race) covers the
// moment routing goes visibly stale.
func (c *Client) pollTopology() {
	defer close(c.pollerDone)
	// Prime immediately: a client created while nodes are joining should
	// not wait a full interval for its first true table.
	c.refreshTopology()
	t := time.NewTicker(c.cfg.TopologyInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.refreshTopology()
		case <-c.refreshC:
			c.refreshTopology()
		case <-c.stopC:
			return
		}
	}
}

// refreshTopology fetches the admin topology once and swaps in the node
// table. Failures leave the current table untouched — a flaky admin
// endpoint must not amputate a working ring — and an empty table is
// treated as a failure for the same reason.
func (c *Client) refreshTopology() {
	resp, err := c.http.Get(c.cfg.TopologyURL)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var infos []NodeInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&infos); err != nil {
		return
	}
	nodes := make([]string, 0, len(infos))
	for _, ni := range infos {
		if ni.URL != "" {
			nodes = append(nodes, ni.URL)
		}
	}
	if len(nodes) == 0 {
		return
	}
	c.SetNodes(nodes)
	c.refreshes.Add(1)
}

// kickRefresh requests an immediate topology poll (non-blocking: a
// pending kick is as good as two).
func (c *Client) kickRefresh() {
	if c.refreshC == nil {
		return
	}
	select {
	case c.refreshC <- struct{}{}:
	default:
	}
}

// SetNodes replaces the node table (the join/leave hook).
func (c *Client) SetNodes(nodes []string) {
	want := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		want[n] = true
		c.ring.Add(n)
	}
	for _, n := range c.ring.Nodes() {
		if !want[n] {
			c.ring.Remove(n)
		}
	}
}

// Nodes returns the current node table.
func (c *Client) Nodes() []string { return c.ring.Nodes() }

// Stats samples the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests:          c.requests.Load(),
		Failovers:         c.failovers.Load(),
		Hedges:            c.hedges.Load(),
		HedgeWins:         c.hedgeWins.Load(),
		Retries429:        c.retries429.Load(),
		Errors:            c.errorsCt.Load(),
		TopologyRefreshes: c.refreshes.Load(),
		BinaryRequests:    c.binaryReqs.Load(),
	}
}

// markDown records a node failure; the node is skipped in routing until
// the cooldown passes (it stays a last-resort candidate).
func (c *Client) markDown(node string) {
	c.healthMu.Lock()
	c.downTil[node] = time.Now().Add(c.cfg.DownCooldown)
	c.healthMu.Unlock()
}

// markUp clears a node's down state after a success.
func (c *Client) markUp(node string) {
	c.healthMu.Lock()
	delete(c.downTil, node)
	c.healthMu.Unlock()
}

// candidates returns the failover sequence for key: the owner and its
// successors, healthy nodes first, cooling-down nodes demoted to the
// tail rather than dropped (when everything is marked down, trying is
// still better than failing).
func (c *Client) candidates(key uint64) []string {
	seq := c.ring.Sequence(key, c.cfg.MaxAttempts)
	now := time.Now()
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	healthy := make([]string, 0, len(seq))
	var cooling []string
	for _, n := range seq {
		if til, ok := c.downTil[n]; ok && now.Before(til) {
			cooling = append(cooling, n)
		} else {
			healthy = append(healthy, n)
		}
	}
	return append(healthy, cooling...)
}

// payload is one request in both wire forms. The JSON body is always
// present; the binary body (plus the query string that carries what
// JSON carries inline) exists only when the client could parse every
// program locally; an attempt posts the binary form whenever it exists.
type payload struct {
	json   []byte
	binary []byte // nil: JSON only
	query  string // "?machine=...&algorithm=..." for the binary form
}

// machine memoizes target.Parse per spec.
func (c *Client) machine(spec string) (*target.Machine, error) {
	c.machMu.Lock()
	defer c.machMu.Unlock()
	if m, ok := c.machCache[spec]; ok {
		return m, nil
	}
	m, err := target.Parse(spec)
	if err != nil {
		return nil, err
	}
	c.machCache[spec] = m
	return m, nil
}

// encodeBinary builds the application/x-lsra-ir form of a request:
// concatenated irbin frames plus the query parameters the binary arm
// of POST /allocate reads instead of a JSON envelope. Any parse
// failure returns nil — the server's text parser is the authority on
// malformed programs, so such requests travel as JSON and get the
// server's error verbatim.
func (c *Client) encodeBinary(req *serve.AllocateRequest, texts []string) ([]byte, string) {
	mach, err := c.machine(req.Machine)
	if err != nil {
		return nil, ""
	}
	var body []byte
	for _, text := range texts {
		prog, err := ir.ParseProgramString(text, mach)
		if err != nil {
			return nil, ""
		}
		body = irbin.AppendProgram(body, prog)
	}
	q := url.Values{}
	q.Set("machine", req.Machine)
	if req.Algorithm != "" {
		q.Set("algorithm", req.Algorithm)
	}
	if req.Priority != "" {
		q.Set("priority", req.Priority)
	}
	return body, "?" + q.Encode()
}

// Allocate routes one request to its owning node, failing over to ring
// successors on node failure and hedging per ClientConfig. It returns
// the decoded response and the node that served it. Unless
// DisableBinary is set, programs the client can parse locally are
// posted in the binary wire form (application/x-lsra-ir), skipping the
// server's text parser.
func (c *Client) Allocate(ctx context.Context, req serve.AllocateRequest) (*serve.AllocateResponse, string, error) {
	c.requests.Add(1)
	texts := req.Programs
	if req.Program != "" {
		texts = []string{req.Program}
	}
	var p payload
	var err error
	p.json, err = json.Marshal(&req)
	if err != nil {
		return nil, "", err
	}
	if !c.cfg.DisableBinary {
		p.binary, p.query = c.encodeBinary(&req, texts)
	}
	seq := c.candidates(RouteKey(req.Machine, req.Algorithm, texts))
	if len(seq) == 0 {
		c.errorsCt.Add(1)
		return nil, "", fmt.Errorf("cluster: no nodes")
	}
	resp, node, err := c.race(ctx, seq, p)
	if err != nil {
		c.errorsCt.Add(1)
		return nil, "", err
	}
	return resp, node, nil
}

// attemptResult is one node attempt's outcome.
type attemptResult struct {
	idx    int
	hedged bool
	resp   *serve.AllocateResponse
	err    error
}

// race runs the staggered-failover protocol over the candidate
// sequence: the owner is tried immediately; a failure starts the next
// candidate at once (failover); with hedging enabled, a candidate that
// is merely slow gets company after HedgeDelay. The first success wins
// and cancels the rest.
func (c *Client) race(ctx context.Context, seq []string, p payload) (*serve.AllocateResponse, string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, len(seq))
	next, inflight := 0, 0
	launch := func(hedged bool) {
		idx := next
		next++
		inflight++
		go func() {
			resp, err := c.attempt(ctx, seq[idx], p)
			results <- attemptResult{idx: idx, hedged: hedged, resp: resp, err: err}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if c.cfg.HedgeDelay > 0 && next < len(seq) {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case res := <-results:
			inflight--
			if res.err == nil {
				if res.hedged {
					c.hedgeWins.Add(1)
				}
				if res.idx == 0 {
					// The ring owner answered: routing is healthy, so the
					// consecutive-failover streak ends here.
					c.consecFails.Store(0)
				}
				c.markUp(seq[res.idx])
				return res.resp, seq[res.idx], nil
			}
			lastErr = fmt.Errorf("node %s: %w", seq[res.idx], res.err)
			if ctx.Err() != nil {
				return nil, "", lastErr
			}
			c.markDown(seq[res.idx])
			if next < len(seq) {
				c.failovers.Add(1)
				// A streak of failovers with no owner success means the
				// node table no longer matches the cluster: pull a fresh
				// topology instead of burning attempts on ghosts.
				if n := c.consecFails.Add(1); c.cfg.FailoverRefresh > 0 && n >= uint64(c.cfg.FailoverRefresh) {
					c.consecFails.Store(0)
					c.kickRefresh()
				}
				launch(false)
			} else if inflight == 0 {
				return nil, "", lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(seq) {
				c.hedges.Add(1)
				launch(true)
			}
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
}

// attempt posts the request to one node, honoring 429 + Retry-After
// with bounded backoff: the server's explicit please-wait is respected
// (capped at MaxRetryAfter) up to Max429Retries times before the
// attempt counts as failed. When the payload carries a binary form, it
// is posted as binary; otherwise as JSON.
func (c *Client) attempt(ctx context.Context, node string, p payload) (*serve.AllocateResponse, error) {
	useBinary := p.binary != nil
	retries := 0
	for {
		body, endpoint, ctype := p.json, node+"/allocate", "application/json"
		if useBinary {
			body, endpoint, ctype = p.binary, node+"/allocate"+p.query, serve.ContentTypeBinaryIR
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", ctype)
		if useBinary {
			c.binaryReqs.Add(1)
		}
		resp, err := c.http.Do(hreq)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var out serve.AllocateResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				return nil, fmt.Errorf("bad response body: %w", err)
			}
			return &out, nil
		case resp.StatusCode == http.StatusTooManyRequests && retries < c.cfg.Max429Retries:
			retries++
			c.retries429.Add(1)
			if err := sleepCtx(ctx, retryAfter(resp, c.cfg.MaxRetryAfter)); err != nil {
				return nil, err
			}
			continue
		default:
			var e serve.ErrorResponse
			if json.Unmarshal(raw, &e) == nil && e.Error != "" {
				return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
			}
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
	}
}

// retryAfter reads a 429's Retry-After seconds, bounded by limit (which
// is also the fallback when the header is missing or unparsable).
func retryAfter(resp *http.Response, limit time.Duration) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			d := time.Duration(secs) * time.Second
			if d > limit {
				return limit
			}
			return d
		}
	}
	return limit
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
