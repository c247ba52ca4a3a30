package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// Transport is the RPC surface between a client and one checker node,
// abstracted so unit tests inject failures without a network. The
// production implementation is HTTPTransport.
type Transport interface {
	Open(ctx context.Context, node string, req OpenRequest) (OpenResponse, error)
	// Section delivers one encoded section and returns its report — the
	// acknowledgement carries the result, so "acked" and "checked" are
	// the same event. span is the client's originating section span ID
	// for cross-node correlation (0 when no flight recorder is
	// attached); transports propagate it as an optional header.
	Section(ctx context.Context, node, session string, seq uint64, payload []byte, crc uint32, span uint64) (core.Report, error)
	CloseSession(ctx context.Context, node, session string) error
	Health(ctx context.Context, node string) error
}

// HTTPTransport speaks the /v1/* section protocol to pmtestd nodes.
type HTTPTransport struct {
	// Client defaults to a dedicated http.Client; per-RPC deadlines come
	// from the caller's context, so no Timeout is set here.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// do issues the request and decodes a JSON 2xx body into out (when
// non-nil); non-2xx becomes a typed *RPCError.
func (t *HTTPTransport) do(req *http.Request, out any) error {
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &RPCError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (t *HTTPTransport) Open(ctx context.Context, node string, req OpenRequest) (OpenResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return OpenResponse{}, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+node+PathOpen, bytes.NewReader(body))
	if err != nil {
		return OpenResponse{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	var out OpenResponse
	return out, t.do(hr, &out)
}

func (t *HTTPTransport) Section(ctx context.Context, node, session string, seq uint64, payload []byte, crc uint32, span uint64) (core.Report, error) {
	u := "http://" + node + PathSection + "?session=" + url.QueryEscape(session)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(payload))
	if err != nil {
		return core.Report{}, err
	}
	hr.Header.Set(headerSeq, strconv.FormatUint(seq, 10))
	hr.Header.Set(headerCRC, strconv.FormatUint(uint64(crc), 10))
	if span != 0 {
		hr.Header.Set(headerSpan, strconv.FormatUint(span, 10))
	}
	hr.Header.Set("Content-Type", "application/octet-stream")
	var rep core.Report
	return rep, t.do(hr, &rep)
}

func (t *HTTPTransport) CloseSession(ctx context.Context, node, session string) error {
	u := "http://" + node + PathClose + "?session=" + url.QueryEscape(session)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	return t.do(hr, nil)
}

func (t *HTTPTransport) Health(ctx context.Context, node string) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+node+PathHealth, nil)
	if err != nil {
		return err
	}
	return t.do(hr, nil)
}

// Options configures a Coordinator.
type Options struct {
	// Nodes are the checker node addresses (host:port). Sessions shard
	// across them by session-id hash; failover walks the ring.
	Nodes []string
	// Transport defaults to an HTTPTransport.
	Transport Transport
	// RPCTimeout is the per-RPC deadline (default 5s).
	RPCTimeout time.Duration
	// Attempts bounds tries of one RPC against one node before failing
	// over (default 3); retries wait Backoff delays.
	Attempts int
	// Backoff shapes the retry delays (zero value = defaults).
	Backoff Backoff
	// BufferLimit caps the unacknowledged section bytes a session
	// buffers (default 16MB). At the cap Submit blocks (backpressure)
	// unless DropOnOverflow is set.
	BufferLimit int64
	// DropOnOverflow drops new sections (counted in
	// dist_sections_dropped) instead of blocking when the buffer is
	// full — for callers that must never stall the program under test.
	DropOnOverflow bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// node's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses a node before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// HealthInterval enables background node health probes (0 = none);
	// probes feed the breakers, re-closing them when a node recovers.
	HealthInterval time.Duration
	// DisableFallback turns off the last rung of the degradation
	// ladder: with it set, a section that no node accepts is dropped
	// (and the session carries a deferred error) instead of being
	// checked by a local in-process engine.
	DisableFallback bool
	// Check and Excludes mirror the engine options of the sessions
	// opened through this coordinator. Check.TrackOnly travels to the
	// nodes; the whole Check config governs the local fallback checker.
	Check    core.Config
	Excludes []core.Range

	// Metrics receives the dist_* robustness counters. Optional.
	Metrics *obs.Metrics
	// Flight records rpc/failover spans (flight.CatRPC). Optional.
	Flight *flight.Recorder
	// Logger receives retry/failover/fallback records. Optional.
	Logger *slog.Logger

	// Test hooks: injected clock and sleep. Nil means real time.
	now   func() time.Time
	sleep func(time.Duration)
}

// Coordinator owns the node ring, the per-node circuit breakers, and
// the optional health prober; sessions are opened through it.
type Coordinator struct {
	opts     Options
	tr       Transport
	breakers []*breaker
	stop     chan struct{}
	stopOnce sync.Once
}

// NewCoordinator validates the options and starts the health prober
// (when configured).
func NewCoordinator(opts Options) (*Coordinator, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("dist: no checker nodes configured")
	}
	if opts.Transport == nil {
		opts.Transport = &HTTPTransport{}
	}
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 5 * time.Second
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	if opts.BufferLimit <= 0 {
		opts.BufferLimit = 16 << 20
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.sleep == nil {
		opts.sleep = time.Sleep
	}
	c := &Coordinator{opts: opts, tr: opts.Transport, stop: make(chan struct{})}
	onOpen := func() {
		if m := opts.Metrics; m != nil {
			m.DistBreakerOpens.Add(1)
		}
	}
	for range opts.Nodes {
		c.breakers = append(c.breakers, newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.now, onOpen))
	}
	if opts.HealthInterval > 0 {
		go c.probe()
	}
	return c, nil
}

// Close stops the health prober. Open sessions keep working; close
// them individually.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// probe feeds the breakers from periodic health checks, so a recovered
// node rejoins the ring without waiting for live traffic to find it.
func (c *Coordinator) probe() {
	tick := time.NewTicker(c.opts.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for i, node := range c.opts.Nodes {
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.RPCTimeout)
			err := c.tr.Health(ctx, node)
			cancel()
			if err != nil {
				c.breakers[i].Failure()
			} else {
				c.breakers[i].Success()
			}
		}
	}
}

// BreakerStates reports each node's breaker state, index-aligned with
// Options.Nodes.
func (c *Coordinator) BreakerStates() []string {
	out := make([]string, len(c.breakers))
	for i, b := range c.breakers {
		out[i] = b.State()
	}
	return out
}

// homeNode shards a session onto the ring by stable hash.
func (c *Coordinator) homeNode(sid string) int {
	h := fnv.New32a()
	io.WriteString(h, sid)
	return int(h.Sum32()) % len(c.opts.Nodes)
}

// pendingSection is one buffered, unacknowledged section: the wire
// payload for delivery, the decoded trace for local fallback, and the
// client section span ID (captured at Submit, since the trace may be
// mutated concurrently) propagated for cross-node correlation.
type pendingSection struct {
	seq     uint64
	payload []byte
	crc     uint32
	spanID  uint64
	tr      *trace.Trace
}

// Session is a remote checking session: Submit buffers and streams
// sections to the session's current node, Wait/Close return reports
// byte-identical to a local engine's. It satisfies the same
// Submit/Wait/Close/QueueDepths surface as core.Engine.
type Session struct {
	c     *Coordinator
	sid   string
	rules core.RuleSet
	rng   *rand.Rand

	mu   sync.Mutex
	cond *sync.Cond
	// pending[0] is in flight (or next to go); the rest is backlog.
	// After a failover the whole slice replays on the new node.
	pending      []*pendingSection
	pendingBytes int64
	nextSeq      uint64
	reports      map[uint64]core.Report
	nodeIdx      int
	opened       bool
	closed       bool
	err          error
	done         chan struct{}
	// local is the fallback checker, built on first use. Its Check calls
	// never overlap: the pump checks the head section only while it is
	// pending, and Submit checks an oversized section only under mu with
	// the pending buffer empty.
	local *core.ShardedChecker
}

// OpenSession starts a checking session under the given model. The
// remote side is established lazily by the first section, so a dead
// home node costs a failover, not an open error.
func (c *Coordinator) OpenSession(sid string, rules core.RuleSet) *Session {
	if rules == nil {
		rules = core.X86{}
	}
	h := fnv.New64a()
	io.WriteString(h, sid)
	s := &Session{
		c:       c,
		sid:     sid,
		rules:   rules,
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		reports: make(map[uint64]core.Report),
		nodeIdx: c.homeNode(sid),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

// Node returns the address of the node currently holding the session's
// remote engine, or "" before the first section lands (or after a full
// degradation to local checking).
func (s *Session) Node() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.opened {
		return ""
	}
	return s.c.opts.Nodes[s.nodeIdx]
}

// Submit buffers one section for remote checking. It blocks when the
// unacknowledged buffer is at Options.BufferLimit (backpressure) unless
// the coordinator drops on overflow. Like core.Engine, Submit after
// Close panics.
func (s *Session) Submit(t *trace.Trace) {
	var buf bytes.Buffer
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("dist: Submit after Close")
	}
	t.ID = int(s.nextSeq)
	if err := trace.Encode(&buf, t); err != nil {
		// Encoding only fails on a hostile in-memory trace; keep the
		// session alive and surface it as a deferred error.
		if s.err == nil {
			s.err = fmt.Errorf("dist: encoding section %d: %w", s.nextSeq, err)
		}
		s.nextSeq++
		s.mu.Unlock()
		return
	}
	payload := buf.Bytes()
	sz := int64(len(payload))
	m := s.c.opts.Metrics
	if sz > s.c.opts.BufferLimit {
		// A section bigger than the whole buffer can never be enqueued
		// within the cap. Preserve report order by draining the backlog,
		// then either drop it or check it in-process.
		seq := s.nextSeq
		s.nextSeq++
		if s.c.opts.DropOnOverflow {
			s.mu.Unlock()
			if m != nil {
				m.DistSectionsDropped.Add(1)
			}
			return
		}
		for len(s.pending) > 0 {
			s.cond.Wait()
		}
		rep := s.checkLocal(&pendingSection{seq: seq, tr: t})
		s.reports[seq] = rep
		s.mu.Unlock()
		if m != nil {
			m.DistFallbacks.Add(1)
		}
		return
	}
	for s.pendingBytes+sz > s.c.opts.BufferLimit && len(s.pending) > 0 {
		if s.c.opts.DropOnOverflow {
			s.nextSeq++ // the seq is consumed so reports stay index-aligned
			s.mu.Unlock()
			if m != nil {
				m.DistSectionsDropped.Add(1)
			}
			return
		}
		s.cond.Wait()
	}
	p := &pendingSection{seq: s.nextSeq, payload: payload, crc: crc32.ChecksumIEEE(payload), spanID: t.SpanID, tr: t}
	s.nextSeq++
	s.pending = append(s.pending, p)
	s.pendingBytes += sz
	buffered := s.pendingBytes
	s.cond.Broadcast()
	s.mu.Unlock()
	if m != nil {
		m.DistBufferedBytes.Add(sz)
		m.DistBufferedPeak.SetMax(buffered)
	}
}

// Wait blocks until every submitted section has a report and returns
// them in section order — byte-identical to what a local engine would
// report for the same sections.
func (s *Session) Wait() []core.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) > 0 {
		s.cond.Wait()
	}
	out := make([]core.Report, 0, len(s.reports))
	for _, r := range s.reports {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TraceID < out[j].TraceID })
	return out
}

// Err returns the session's first deferred error (a refused section, a
// dropped-with-fallback-disabled section, an encode failure), or nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// QueueDepths reports the unacknowledged section backlog as a
// single-queue depth, mirroring core.Engine's shape.
func (s *Session) QueueDepths() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []int{len(s.pending)}
}

// Close drains the session, tears down the remote side (best effort)
// and returns the final reports.
func (s *Session) Close() []core.Report {
	reports := s.Wait()
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	opened, idx := s.opened, s.nodeIdx
	s.cond.Broadcast()
	s.mu.Unlock()
	if alreadyClosed {
		return reports
	}
	<-s.done
	s.mu.Lock()
	if s.local != nil {
		s.local.Close()
		s.local = nil
	}
	s.mu.Unlock()
	if opened {
		ctx, cancel := context.WithTimeout(context.Background(), s.c.opts.RPCTimeout)
		s.c.tr.CloseSession(ctx, s.c.opts.Nodes[idx], s.sid)
		cancel()
	}
	return reports
}

// pump is the session's single sender goroutine: it delivers the head
// of the pending buffer through the degradation ladder, records the
// acked report, and pops. One section is in flight at a time, so the
// pending buffer is exactly the replay window a failover needs.
func (s *Session) pump() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		p := s.pending[0]
		s.mu.Unlock()

		rep, ok := s.deliver(p)

		s.mu.Lock()
		if ok {
			s.reports[p.seq] = rep
		}
		s.pending = s.pending[1:]
		s.pendingBytes -= int64(len(p.payload))
		s.cond.Broadcast()
		s.mu.Unlock()
		if m := s.c.opts.Metrics; m != nil {
			m.DistBufferedBytes.Add(-int64(len(p.payload)))
		}
	}
}

// deliver pushes one section down the degradation ladder: the current
// node with retries, then failover around the ring, then the local
// fallback engine. It returns ok=false only when fallback is disabled
// and no node accepted the section.
func (s *Session) deliver(p *pendingSection) (core.Report, bool) {
	c := s.c
	var span *flight.Span
	if fl := c.opts.Flight; fl != nil {
		// Parent under the client's section span and carry its ID as an
		// attribute, so a timeline stitcher can join this delivery
		// attempt to the section it shipped.
		span = fl.Start(flight.CatRPC, "section", p.spanID).
			SetInt("seq", int64(p.seq)).SetStr("session", s.sid)
		if p.spanID != 0 {
			span.SetInt("span", int64(p.spanID))
		}
	}
	finish := func(route string, err error) {
		if span != nil {
			span.SetStr("route", route)
			if err != nil {
				span.SetErr(true).SetStr("err", err.Error())
			}
			span.Finish()
		}
	}

	// The step budget allows one same-node reopen after a lost session
	// plus a full failover lap around the ring before degrading.
	var lastErr error
ring:
	for step := 0; step < 2*len(c.opts.Nodes)+1; step++ {
		s.mu.Lock()
		idx := s.nodeIdx
		opened := s.opened
		s.mu.Unlock()
		node := c.opts.Nodes[idx]
		br := c.breakers[idx]
		if !br.Allow() {
			s.failover(idx, nil)
			continue
		}
		if !opened {
			if err := s.open(idx, p.seq); err != nil {
				br.Failure()
				lastErr = err
				if classify(err) == classRefused {
					// The node rejected the session itself (model,
					// protocol); no other node will differ.
					break ring
				}
				s.failover(idx, err)
				continue
			}
			br.Success()
		}
		rep, err := s.sendSection(idx, p, br)
		if err == nil {
			if m := c.opts.Metrics; m != nil {
				m.DistSectionsSent.Add(1)
			}
			finish("node:"+node, nil)
			return rep, true
		}
		lastErr = err
		switch classify(err) {
		case classSessionLost:
			// The node forgot us (restart, TTL reap): re-open on the
			// same node with the replay window starting here.
			s.mu.Lock()
			s.opened = false
			s.mu.Unlock()
			if c.opts.Logger != nil {
				c.opts.Logger.Warn("dist session lost; reopening", "session", s.sid,
					"node", node, "seq", p.seq, "err", err)
			}
		case classRefused:
			// This section can never be accepted (undecodable on the
			// node). Local fallback still checks it.
			if s.setErr(fmt.Errorf("dist: section %d refused by %s: %w", p.seq, node, err)) && c.opts.Logger != nil {
				c.opts.Logger.Error("dist section refused", "session", s.sid,
					"node", node, "seq", p.seq, "err", err)
			}
			break ring
		default:
			s.failover(idx, err)
		}
	}

	if !c.opts.DisableFallback {
		if m := c.opts.Metrics; m != nil {
			m.DistFallbacks.Add(1)
		}
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("dist degraded to local check", "session", s.sid,
				"seq", p.seq, "err", lastErr)
		}
		finish("local-fallback", lastErr)
		return s.checkLocal(p), true
	}
	s.setErr(fmt.Errorf("dist: section %d undeliverable, fallback disabled: %w", p.seq, lastErr))
	if m := c.opts.Metrics; m != nil {
		m.DistSectionsDropped.Add(1)
	}
	finish("dropped", lastErr)
	return core.Report{}, false
}

// open (re-)establishes the remote session on node idx with the replay
// window starting at startSeq.
func (s *Session) open(idx int, startSeq uint64) error {
	c := s.c
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.RPCTimeout)
	defer cancel()
	_, err := c.tr.Open(ctx, c.opts.Nodes[idx], OpenRequest{
		Version:   ProtocolVersion,
		Session:   s.sid,
		Model:     s.rules.Name(),
		TrackOnly: c.opts.Check.TrackOnly,
		Excludes:  c.opts.Excludes,
		StartSeq:  startSeq,
	})
	if err != nil {
		if m := c.opts.Metrics; m != nil {
			m.DistRPCErrors.Add(1)
		}
		return err
	}
	s.mu.Lock()
	s.opened = true
	s.mu.Unlock()
	return nil
}

// sendSection tries one section against one node, up to Attempts times
// with backoff, feeding the node's breaker. Non-retryable errors
// return immediately for the caller to classify.
func (s *Session) sendSection(idx int, p *pendingSection, br *breaker) (core.Report, error) {
	c := s.c
	node := c.opts.Nodes[idx]
	m := c.opts.Metrics
	var lastErr error
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			if m != nil {
				m.DistRetries.Add(1)
			}
			c.opts.sleep(c.opts.Backoff.Delay(attempt-1, s.rng.Float64))
		}
		start := c.opts.now()
		ctx, cancel := context.WithTimeout(context.Background(), c.opts.RPCTimeout)
		rep, err := c.tr.Section(ctx, node, s.sid, p.seq, p.payload, p.crc, p.spanID)
		cancel()
		if err == nil {
			br.Success()
			if m != nil {
				m.DistRTT.Observe(c.opts.now().Sub(start))
			}
			return rep, nil
		}
		if m != nil {
			m.DistRPCErrors.Add(1)
		}
		br.Failure()
		lastErr = err
		if classify(err) != classRetryable {
			return core.Report{}, err
		}
	}
	return core.Report{}, lastErr
}

// failover abandons the current node: the session re-opens on the next
// ring slot when deliver loops. Only counted (and span-recorded) when
// a live session was actually lost, not when sharding merely skips an
// open breaker.
func (s *Session) failover(fromIdx int, cause error) {
	c := s.c
	s.mu.Lock()
	hadSession := s.opened
	s.opened = false
	s.nodeIdx = (fromIdx + 1) % len(c.opts.Nodes)
	to := c.opts.Nodes[s.nodeIdx]
	s.mu.Unlock()
	if !hadSession {
		return
	}
	if m := c.opts.Metrics; m != nil {
		m.DistFailovers.Add(1)
	}
	if fl := c.opts.Flight; fl != nil {
		sp := fl.Start(flight.CatRPC, "failover", 0).
			SetStr("session", s.sid).SetStr("from", c.opts.Nodes[fromIdx]).SetStr("to", to)
		if cause != nil {
			sp.SetErr(true).SetStr("err", cause.Error())
		}
		sp.Finish()
	}
	if c.opts.Logger != nil {
		c.opts.Logger.Warn("dist failover", "session", s.sid,
			"from", c.opts.Nodes[fromIdx], "to", to, "err", cause)
	}
}

// checkLocal is the ladder's last rung: check the section in-process on
// the session's own persistent checker, under the session's checker
// config, so Wait never hangs on a dead fleet, the reports stay complete
// and identical, and epoch GC keeps bounding shadow memory.
func (s *Session) checkLocal(p *pendingSection) core.Report {
	if s.local == nil {
		s.local = core.NewShardedChecker(s.rules, s.c.opts.Check)
	}
	rep, _ := s.local.Check(p.tr, s.c.opts.Excludes)
	rep.TraceID = int(p.seq)
	return rep
}

// setErr records the first deferred error; reports whether this call
// stored it.
func (s *Session) setErr(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false
	}
	s.err = err
	return true
}
