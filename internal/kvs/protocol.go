package kvs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"faasm.dev/faasm/internal/obsv"
)

// The wire protocol is a line-oriented request/response exchange. Keys and
// members travel quoted (strconv.Quote) so they may contain any bytes;
// binary payloads follow a declared length:
//
//	request:  CMD "key" args... [payloadLen]\n [payload bytes]
//	response: OK | NIL | INT n | ERR msg | VAL n\n<bytes> | MULTI n\n"m1"\n...
//
// It deliberately mirrors the shape of RESP (the paper's global tier is
// Redis) while staying trivially parseable.
//
// Batch commands move a whole group in one exchange: MGET "k"... replies
// MULTI n followed by one VAL/NIL per key; GETRANGES "key" off n [off n]...
// replies MULTI n with one VAL/NIL per window; MSET n is followed by n
// entries of the form "key" len\n<payload> and replies a single OK. The
// client pipelines them — requests written, one flush, replies read — so a
// batch costs one network round trip per command window of up to MaxBatch
// entries (MSET windows additionally travel in a single flush), instead of
// one round trip per key.
//
// Key expiry is a tier-side primitive, mirroring Redis SETEX: the server's
// engine judges expiry on its own clock, so clients never compare stored
// deadlines against their clocks. SETEX "key" ttlMS len\n<payload> writes a
// value that the tier hides once ttlMS milliseconds elapse; TTL "key"
// replies INT remainingMS (-1 persistent, -2 missing); PERSIST "key" clears
// an expiry (INT 0|1); MSETEX n ttlMS is MSET with one shared TTL.

// MaxPayload bounds a single declared payload length. A malicious or corrupt
// length field must not make the server allocate unbounded memory or block
// reading bytes that will never arrive; oversized declarations get an ERR
// and the connection is dropped.
const MaxPayload = 64 << 20

// MaxBatch bounds the entries in one batch command, for the same reason
// MaxPayload bounds one payload: a declared batch size must not make the
// server hold unbounded buffered writes. Clients split larger batches into
// several commands within one pipelined exchange.
const MaxBatch = 1024

// maxLine bounds one request line (command, quoted keys, numeric args).
const maxLine = 64 * 1024

// Server serves an Engine over TCP.
type Server struct {
	engine *Engine
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	done   chan struct{}
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0") backed by engine.
func NewServer(engine *Engine, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvs: listen %s: %w", addr, err)
	}
	s := &Server{engine: engine, ln: ln, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all connections.
func (s *Server) Close() error {
	close(s.done)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, maxLine)
	w := bufio.NewWriterSize(conn, 64*1024)
	for {
		// ReadSlice caps the line at the buffer size, so an endless
		// newline-free stream cannot grow server memory.
		raw, err := r.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				fmt.Fprintf(w, "ERR request line too long\n")
				w.Flush()
			}
			return
		}
		line := strings.TrimSuffix(string(raw), "\n")
		if err := s.dispatch(line, r, w); err != nil {
			// Protocol-fatal: surface the reason if we still can, then drop
			// the connection rather than resynchronise mid-payload.
			fmt.Fprintf(w, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
			w.Flush()
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch handles one request line; returns an error only for connection-
// fatal conditions.
func (s *Server) dispatch(line string, r *bufio.Reader, w *bufio.Writer) error {
	fields, err := splitFields(line)
	if err != nil || len(fields) == 0 {
		fmt.Fprintf(w, "ERR bad request\n")
		return nil
	}
	reply := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	errReply := func(err error) { reply("ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " ")) }

	readPayload := func(lenField string) ([]byte, error) {
		n, err := strconv.Atoi(lenField)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad payload length %q", lenField)
		}
		if n > MaxPayload {
			return nil, fmt.Errorf("payload length %d exceeds limit %d", n, MaxPayload)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}

	// readPairs consumes n MSET/MSETEX entries ("key" len\n<payload>),
	// enforcing the aggregate payload bound — the batch buffers before
	// applying, so the total, not just each entry, must respect it.
	readPairs := func(n int) ([]Pair, error) {
		pairs := make([]Pair, 0, n)
		var total int
		for i := 0; i < n; i++ {
			line, err := readLine(r)
			if err != nil {
				return nil, err
			}
			sub, err := splitFields(line)
			if err != nil || len(sub) != 2 {
				return nil, fmt.Errorf("bad batch entry %q", line)
			}
			payload, err := readPayload(sub[1])
			if err != nil {
				return nil, err
			}
			if total += len(payload); total > MaxPayload {
				return nil, fmt.Errorf("batch payload total exceeds limit %d", MaxPayload)
			}
			pairs = append(pairs, Pair{Key: sub[0], Val: payload})
		}
		return pairs, nil
	}

	// writeVals emits one VAL/NIL reply per entry (batch replies).
	writeVals := func(vals [][]byte) {
		reply("MULTI %d\n", len(vals))
		for _, v := range vals {
			if v == nil {
				reply("NIL\n")
			} else {
				reply("VAL %d\n", len(v))
				w.Write(v)
			}
		}
	}

	cmd := fields[0]
	switch {
	case cmd == "PING":
		reply("OK\n")
	case cmd == "MGET" && len(fields) >= 2:
		if len(fields)-1 > MaxBatch {
			return fmt.Errorf("batch size %d exceeds limit %d", len(fields)-1, MaxBatch)
		}
		vals, err := s.engine.MGet(fields[1:])
		if err != nil {
			errReply(err)
			return nil
		}
		writeVals(vals)
	case cmd == "MSET" && len(fields) == 2:
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return fmt.Errorf("bad batch size %q", fields[1])
		}
		if n > MaxBatch {
			return fmt.Errorf("batch size %d exceeds limit %d", n, MaxBatch)
		}
		pairs, err := readPairs(n)
		if err != nil {
			return err
		}
		if err := s.engine.MSet(pairs); err != nil {
			errReply(err)
		} else {
			reply("OK\n")
		}
	case cmd == "MSETEX" && len(fields) == 3:
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return fmt.Errorf("bad batch size %q", fields[1])
		}
		if n > MaxBatch {
			return fmt.Errorf("batch size %d exceeds limit %d", n, MaxBatch)
		}
		// A bad TTL is connection-fatal: the n entries are already in
		// flight and resynchronising mid-payload is impossible.
		ttl, err := parseTTLMillis(fields[2])
		if err != nil {
			return err
		}
		pairs, err := readPairs(n)
		if err != nil {
			return err
		}
		if err := s.engine.MSetEx(pairs, ttl); err != nil {
			errReply(err)
		} else {
			reply("OK\n")
		}
	case cmd == "GETRANGES" && len(fields) >= 4 && len(fields)%2 == 0:
		k := (len(fields) - 2) / 2
		if k > MaxBatch {
			return fmt.Errorf("batch size %d exceeds limit %d", k, MaxBatch)
		}
		ranges := make([]Range, k)
		for i := 0; i < k; i++ {
			off, err1 := strconv.Atoi(fields[2+2*i])
			n, err2 := strconv.Atoi(fields[3+2*i])
			if err1 != nil || err2 != nil {
				reply("ERR bad range\n")
				return nil
			}
			ranges[i] = Range{Off: off, N: n}
		}
		vals, err := s.engine.GetRanges(fields[1], ranges)
		if err != nil {
			errReply(err)
			return nil
		}
		writeVals(vals)
	case cmd == "GET" && len(fields) == 2:
		v, err := s.engine.Get(fields[1])
		if err != nil {
			errReply(err)
			return nil
		}
		if v == nil {
			reply("NIL\n")
		} else {
			reply("VAL %d\n", len(v))
			w.Write(v)
		}
	case cmd == "SET" && len(fields) == 3:
		payload, err := readPayload(fields[2])
		if err != nil {
			return err
		}
		if err := s.engine.Set(fields[1], payload); err != nil {
			errReply(err)
		} else {
			reply("OK\n")
		}
	case cmd == "SETEX" && len(fields) == 4:
		// A bad TTL is connection-fatal like a bad payload length: the
		// payload is already in flight and cannot be resynchronised past.
		ttl, err := parseTTLMillis(fields[2])
		if err != nil {
			return err
		}
		payload, err := readPayload(fields[3])
		if err != nil {
			return err
		}
		if err := s.engine.SetEx(fields[1], payload, ttl); err != nil {
			errReply(err)
		} else {
			reply("OK\n")
		}
	case cmd == "TTL" && len(fields) == 2:
		d, err := s.engine.TTL(fields[1])
		if err != nil {
			errReply(err)
			return nil
		}
		var ms int64
		switch d {
		case TTLPersistent:
			ms = -1
		case TTLMissing:
			ms = -2
		default:
			// Round up so a live key never reports 0 (which would be
			// indistinguishable from "expiring this instant"). Divide
			// before rounding: adding first would overflow for a maximal
			// TTL and report a ~292-year lease as 1ms.
			ms = int64(d / time.Millisecond)
			if d%time.Millisecond != 0 {
				ms++
			}
			if ms <= 0 {
				ms = 1
			}
		}
		reply("INT %d\n", ms)
	case cmd == "PERSIST" && len(fields) == 2:
		removed, err := s.engine.Persist(fields[1])
		if err != nil {
			errReply(err)
		} else {
			reply("INT %d\n", boolInt(removed))
		}
	case cmd == "GETRANGE" && len(fields) == 4:
		off, err1 := strconv.Atoi(fields[2])
		n, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil {
			reply("ERR bad range\n")
			return nil
		}
		v, err := s.engine.GetRange(fields[1], off, n)
		if err != nil {
			errReply(err)
			return nil
		}
		if v == nil {
			reply("NIL\n")
		} else {
			reply("VAL %d\n", len(v))
			w.Write(v)
		}
	case cmd == "SETRANGE" && len(fields) == 4:
		off, err1 := strconv.Atoi(fields[2])
		if err1 != nil {
			reply("ERR bad offset\n")
			return nil
		}
		payload, err := readPayload(fields[3])
		if err != nil {
			return err
		}
		if err := s.engine.SetRange(fields[1], off, payload); err != nil {
			errReply(err)
		} else {
			reply("OK\n")
		}
	case cmd == "APPEND" && len(fields) == 3:
		payload, err := readPayload(fields[2])
		if err != nil {
			return err
		}
		n, err := s.engine.Append(fields[1], payload)
		if err != nil {
			errReply(err)
		} else {
			reply("INT %d\n", n)
		}
	case cmd == "LEN" && len(fields) == 2:
		n, err := s.engine.Len(fields[1])
		if err != nil {
			errReply(err)
		} else {
			reply("INT %d\n", n)
		}
	case cmd == "DEL" && len(fields) == 2:
		if err := s.engine.Delete(fields[1]); err != nil {
			errReply(err)
		} else {
			reply("OK\n")
		}
	case cmd == "SADD" && len(fields) == 3:
		added, err := s.engine.SAdd(fields[1], fields[2])
		if err != nil {
			errReply(err)
		} else {
			reply("INT %d\n", boolInt(added))
		}
	case cmd == "SREM" && len(fields) == 3:
		removed, err := s.engine.SRem(fields[1], fields[2])
		if err != nil {
			errReply(err)
		} else {
			reply("INT %d\n", boolInt(removed))
		}
	case cmd == "SMEMBERS" && len(fields) == 2:
		members, err := s.engine.SMembers(fields[1])
		if err != nil {
			errReply(err)
			return nil
		}
		reply("MULTI %d\n", len(members))
		for _, m := range members {
			reply("%s\n", strconv.Quote(m))
		}
	case cmd == "INCR" && len(fields) == 3:
		delta, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			reply("ERR bad delta\n")
			return nil
		}
		v, err := s.engine.Incr(fields[1], delta)
		if err != nil {
			errReply(err)
		} else {
			reply("INT %d\n", v)
		}
	case cmd == "LOCK" && len(fields) == 4:
		write := fields[2] == "w"
		ttlMS, err := strconv.Atoi(fields[3])
		if err != nil {
			reply("ERR bad ttl\n")
			return nil
		}
		// Blocking acquire: the paper's global locks block the caller. We
		// must flush nothing until acquired; each connection carries one
		// outstanding request, so blocking here is safe.
		tok, err := s.engine.Lock(fields[1], write, time.Duration(ttlMS)*time.Millisecond)
		if err != nil {
			errReply(err)
		} else {
			reply("INT %d\n", tok)
		}
	case cmd == "KEYS" && len(fields) == 1:
		infos, err := s.engine.AllKeys()
		if err != nil {
			errReply(err)
			return nil
		}
		reply("MULTI %d\n", len(infos))
		for _, ki := range infos {
			reply("%s\n", strconv.Quote(string(ki.Kind)+":"+ki.Key))
		}
	case cmd == "UNLOCK" && len(fields) == 3:
		tok, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			reply("ERR bad token\n")
			return nil
		}
		if err := s.engine.Unlock(fields[1], tok); err != nil {
			errReply(err)
		} else {
			reply("OK\n")
		}
	default:
		reply("ERR unknown command %q\n", cmd)
	}
	return nil
}

// readLine reads one protocol line mid-request (MSET entry headers), capped
// at the reader's buffer size like the top-level request line.
func readLine(r *bufio.Reader) (string, error) {
	raw, err := r.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return "", errors.New("request line too long")
		}
		return "", err
	}
	return strings.TrimSuffix(string(raw), "\n"), nil
}

// maxTTLMillis bounds a wire TTL so converting it to a time.Duration cannot
// overflow into a negative (already-expired, or worse, never-expiring)
// deadline.
const maxTTLMillis = math.MaxInt64 / int64(time.Millisecond)

// parseTTLMillis validates a TTL field: it must be a positive millisecond
// count small enough to survive the Duration conversion. Zero, negative,
// overflowing and non-numeric TTLs are all rejected — an unbounded or
// wrapped TTL would silently turn a lease into a permanent record.
func parseTTLMillis(field string) (time.Duration, error) {
	ms, err := strconv.ParseInt(field, 10, 64)
	if err != nil || ms <= 0 || ms > maxTTLMillis {
		return 0, fmt.Errorf("bad ttl %q", field)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// splitFields splits a request line into fields, unquoting quoted ones.
func splitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			// Find the closing quote, honouring escapes.
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, errors.New("unterminated quote")
			}
			s, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			i = j + 1
		} else {
			j := i
			for j < len(line) && line[j] != ' ' {
				j++
			}
			out = append(out, line[i:j])
			i = j
		}
	}
	return out, nil
}

// RetryPolicy bounds the client's reconnect-and-retry loop. Zero values take
// the field defaults, so a zero RetryPolicy is the default policy, not "no
// retries" — set Max to a negative value to disable retries outright.
type RetryPolicy struct {
	// Max is the retry attempts after the first try (default 2; negative
	// disables retries). Only connect/timeout-class failures (IsUnavailable)
	// are ever retried, and never after the first reply byte has arrived.
	Max int
	// Base is the backoff before the first retry (default 20ms). Each
	// further retry doubles it, capped at Cap (default 1s), with ±50% jitter
	// so a thundering herd of clients does not re-dial in lockstep.
	Base time.Duration
	Cap  time.Duration
}

func (p RetryPolicy) max() int {
	if p.Max < 0 {
		return 0
	}
	if p.Max == 0 {
		return 2
	}
	return p.Max
}

// sleep blocks for the backoff preceding retry attempt (1-based).
func (p RetryPolicy) sleep(attempt int) {
	base := p.Base
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	ceil := p.Cap
	if ceil <= 0 {
		ceil = time.Second
	}
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	// Jitter in [d/2, 3d/2): decorrelates clients without ever collapsing
	// the delay to zero.
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	time.Sleep(d)
}

// Client is a TCP Store client with a small connection pool, so blocking
// LOCK calls do not stall unrelated operations. It counts transferred bytes
// for the network-transfer experiments (Figs 6b, 8b).
//
// DialTimeout, OpTimeout and Retry tune the failure behaviour; set them
// before the client is shared between goroutines (they are read without
// synchronisation once traffic starts).
type Client struct {
	addr string
	pool chan *clientConn
	max  int

	// DialTimeout bounds one connection attempt (0 = 5s).
	DialTimeout time.Duration
	// OpTimeout, when set, bounds each request/reply exchange except LOCK —
	// a lease acquire legitimately blocks server-side until the holder
	// releases, so deadlining it would break mutual exclusion under
	// contention. 0 (the default) leaves exchanges unbounded.
	OpTimeout time.Duration
	// Retry governs redial-and-retry on unavailability; see RetryPolicy.
	Retry RetryPolicy

	Sent     obsv.Counter
	Received obsv.Counter
}

type clientConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// NewClient returns a client for the server at addr with the default
// timeouts and retry policy.
func NewClient(addr string) *Client {
	const poolSize = 8
	return &Client{addr: addr, pool: make(chan *clientConn, poolSize), max: poolSize}
}

func (c *Client) dial() (*clientConn, error) {
	timeout := c.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("kvs: dial %s: %w", c.addr, err)
	}
	return &clientConn{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64*1024),
		w:    bufio.NewWriterSize(conn, 64*1024),
	}, nil
}

// getConn returns a connection and whether it came from the pool. Pooled
// connections may have been closed server-side while idle; callers retry
// those once (see pipelined).
func (c *Client) getConn() (*clientConn, bool, error) {
	select {
	case cc := <-c.pool:
		return cc, true, nil
	default:
	}
	cc, err := c.dial()
	return cc, false, err
}

func (c *Client) putConn(cc *clientConn) {
	select {
	case c.pool <- cc:
	default:
		cc.conn.Close()
	}
}

// Close drains and closes pooled connections.
func (c *Client) Close() error {
	for {
		select {
		case cc := <-c.pool:
			cc.conn.Close()
		default:
			return nil
		}
	}
}

// pipelined runs one request/reply exchange: send writes the entire —
// possibly multi-request — batch, then after a single flush recv parses the
// entire reply stream. reqBytes is the request size for transfer accounting
// (counted once per logical exchange, on success).
func (c *Client) pipelined(reqBytes int, retriable bool, send func(w *bufio.Writer) error, recv func(r *bufio.Reader) error) error {
	return c.exchange(reqBytes, retriable, true, send, recv)
}

// exchange is the client's failure-handling core. Three failure classes,
// three policies:
//
//   - Dial failures: nothing was sent, so a retry can never double-apply —
//     every command (including the non-retriable ones) redials with Retry's
//     bounded exponential backoff. This is what rides out a shard restart.
//   - Pre-reply failures on a pooled connection: the conn was probably
//     closed server-side while idle; retriable commands replay immediately
//     on a fresh conn without consuming a backoff attempt (bounded by the
//     pool size). There is a narrow race where the server executed the
//     request and died before flushing the reply; replaying is harmless for
//     value reads/writes (same bytes land again) but would double-apply
//     INCR and APPEND and leak a LOCK lease, so those commands pass
//     retriable=false and surface the error.
//   - Pre-reply failures on a fresh connection (send error, op deadline,
//     peer death): retriable commands back off and retry while the failure
//     classifies as unavailability; semantic errors surface immediately.
//
// Failures after the first reply byte never retry, regardless of policy:
// the reply is underway and the stream position is unrecoverable. useDeadline
// is false only for LOCK, which legitimately blocks server-side.
func (c *Client) exchange(reqBytes int, retriable, useDeadline bool, send func(w *bufio.Writer) error, recv func(r *bufio.Reader) error) error {
	attempt := func(cc *clientConn) (err error, started bool) {
		if useDeadline && c.OpTimeout > 0 {
			cc.conn.SetDeadline(time.Now().Add(c.OpTimeout))
		}
		if err := send(cc.w); err != nil {
			return err, false
		}
		if err := cc.w.Flush(); err != nil {
			return err, false
		}
		// Peek blocks until the first reply byte (or the conn's death)
		// without consuming it, separating "stale conn, safe to retry"
		// from "reply underway, must not replay".
		if _, err := cc.r.Peek(1); err != nil {
			return err, false
		}
		return recv(cc.r), true
	}
	maxRetries := c.Retry.max()
	retries, staleReplays := 0, 0
	var lastErr error
	for {
		cc, fromPool, err := c.getConn()
		if err != nil {
			lastErr = err
			if retries >= maxRetries {
				return lastErr
			}
			retries++
			c.Retry.sleep(retries)
			continue
		}
		err, started := attempt(cc)
		if err == nil {
			if useDeadline && c.OpTimeout > 0 {
				cc.conn.SetDeadline(time.Time{})
			}
			c.Sent.Add(int64(reqBytes))
			c.putConn(cc)
			return nil
		}
		cc.conn.Close()
		lastErr = err
		if started || !retriable {
			return err
		}
		if fromPool && staleReplays < c.max {
			staleReplays++
			continue
		}
		if !IsUnavailable(err) || retries >= maxRetries {
			return err
		}
		retries++
		c.Retry.sleep(retries)
	}
}

// roundTrip sends one request and parses the status line. Payload handling
// is done by the caller via the passed reader.
func (c *Client) roundTrip(req string, payload []byte, handle func(status string, r *bufio.Reader) error) error {
	return c.roundTripRetry(req, payload, true, handle)
}

// roundTripOnce is roundTrip without the stale-conn replay, for commands
// whose effect must not be applied twice (INCR, APPEND, LOCK).
func (c *Client) roundTripOnce(req string, payload []byte, handle func(status string, r *bufio.Reader) error) error {
	return c.roundTripRetry(req, payload, false, handle)
}

func (c *Client) roundTripRetry(req string, payload []byte, retriable bool, handle func(status string, r *bufio.Reader) error) error {
	return c.roundTripDeadline(req, payload, retriable, true, handle)
}

func (c *Client) roundTripDeadline(req string, payload []byte, retriable, useDeadline bool, handle func(status string, r *bufio.Reader) error) error {
	return c.exchange(len(req)+len(payload), retriable, useDeadline,
		func(w *bufio.Writer) error {
			if _, err := w.WriteString(req); err != nil {
				return err
			}
			_, err := w.Write(payload)
			return err
		},
		func(r *bufio.Reader) error {
			status, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			c.Received.Add(int64(len(status)))
			return handle(strings.TrimSuffix(status, "\n"), r)
		})
}

func parseIntReply(status string) (int64, error) {
	if !strings.HasPrefix(status, "INT ") {
		return 0, replyError(status)
	}
	return strconv.ParseInt(status[4:], 10, 64)
}

func replyError(status string) error {
	if strings.HasPrefix(status, "ERR ") {
		return fmt.Errorf("kvs: server: %s", status[4:])
	}
	return fmt.Errorf("kvs: unexpected reply %q", status)
}

func (c *Client) readVal(status string, r *bufio.Reader) ([]byte, error) {
	if status == "NIL" {
		return nil, nil
	}
	if !strings.HasPrefix(status, "VAL ") {
		return nil, replyError(status)
	}
	n, err := strconv.Atoi(status[4:])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("kvs: bad VAL length %q", status)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	c.Received.Add(int64(n))
	return buf, nil
}

// Get implements Store.
func (c *Client) Get(key string) ([]byte, error) {
	var out []byte
	err := c.roundTrip(fmt.Sprintf("GET %s\n", strconv.Quote(key)), nil, func(status string, r *bufio.Reader) error {
		v, err := c.readVal(status, r)
		out = v
		return err
	})
	return out, err
}

// Set implements Store.
func (c *Client) Set(key string, val []byte) error {
	return c.roundTrip(fmt.Sprintf("SET %s %d\n", strconv.Quote(key), len(val)), val, expectOK)
}

func expectOK(status string, _ *bufio.Reader) error {
	if status != "OK" {
		return replyError(status)
	}
	return nil
}

// ttlMillis renders a TTL for the wire: client-side validation mirrors the
// server's, and sub-millisecond TTLs round up to the wire's granularity
// rather than down to an instantly-rejected zero.
func ttlMillis(ttl time.Duration) (int64, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("kvs: ttl must be positive, got %v", ttl)
	}
	ms := ttl.Milliseconds()
	if ms == 0 {
		ms = 1
	}
	return ms, nil
}

// SetEx implements Store. Safe to replay on a stale pooled conn: a second
// application writes the same bytes and re-arms an equivalent lease.
func (c *Client) SetEx(key string, val []byte, ttl time.Duration) error {
	ms, err := ttlMillis(ttl)
	if err != nil {
		return err
	}
	return c.roundTrip(fmt.Sprintf("SETEX %s %d %d\n", strconv.Quote(key), ms, len(val)), val, expectOK)
}

// TTL implements Store.
func (c *Client) TTL(key string) (time.Duration, error) {
	var out time.Duration
	err := c.roundTrip(fmt.Sprintf("TTL %s\n", strconv.Quote(key)), nil,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			if err != nil {
				return err
			}
			switch {
			case n == -1:
				out = TTLPersistent
			case n == -2:
				out = TTLMissing
			case n > 0:
				out = time.Duration(n) * time.Millisecond
			default:
				return fmt.Errorf("kvs: bad TTL reply %d", n)
			}
			return nil
		})
	return out, err
}

// Persist implements Store. No stale-conn replay, mirroring SAdd: a replay
// of an applied PERSIST would report removed=false for a call that in fact
// cancelled the expiry.
func (c *Client) Persist(key string) (bool, error) {
	var out bool
	err := c.roundTripOnce(fmt.Sprintf("PERSIST %s\n", strconv.Quote(key)), nil,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			out = n == 1
			return err
		})
	return out, err
}

// GetRange implements Store.
func (c *Client) GetRange(key string, off, n int) ([]byte, error) {
	var out []byte
	err := c.roundTrip(fmt.Sprintf("GETRANGE %s %d %d\n", strconv.Quote(key), off, n), nil,
		func(status string, r *bufio.Reader) error {
			v, err := c.readVal(status, r)
			out = v
			return err
		})
	return out, err
}

// SetRange implements Store.
func (c *Client) SetRange(key string, off int, val []byte) error {
	return c.roundTrip(fmt.Sprintf("SETRANGE %s %d %d\n", strconv.Quote(key), off, len(val)), val, expectOK)
}

// Append implements Store. Appends must not replay on a stale pooled conn —
// a double-applied append corrupts the value.
func (c *Client) Append(key string, val []byte) (int, error) {
	var out int
	err := c.roundTripOnce(fmt.Sprintf("APPEND %s %d\n", strconv.Quote(key), len(val)), val,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			out = int(n)
			return err
		})
	return out, err
}

// Len implements Store.
func (c *Client) Len(key string) (int, error) {
	var out int
	err := c.roundTrip(fmt.Sprintf("LEN %s\n", strconv.Quote(key)), nil,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			out = int(n)
			return err
		})
	return out, err
}

// Delete implements Store.
func (c *Client) Delete(key string) error {
	return c.roundTrip(fmt.Sprintf("DEL %s\n", strconv.Quote(key)), nil, expectOK)
}

// SAdd implements Store. No stale-conn replay: replaying is harmless to set
// state, but a replay of an applied SADD reports added=false for a call
// that in fact added the member, breaking first-to-add callers.
func (c *Client) SAdd(key, member string) (bool, error) {
	var out bool
	err := c.roundTripOnce(fmt.Sprintf("SADD %s %s\n", strconv.Quote(key), strconv.Quote(member)), nil,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			out = n == 1
			return err
		})
	return out, err
}

// SRem implements Store. No stale-conn replay, mirroring SAdd: the removed
// boolean of a replayed SREM would be wrong.
func (c *Client) SRem(key, member string) (bool, error) {
	var out bool
	err := c.roundTripOnce(fmt.Sprintf("SREM %s %s\n", strconv.Quote(key), strconv.Quote(member)), nil,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			out = n == 1
			return err
		})
	return out, err
}

// SMembers implements Store.
func (c *Client) SMembers(key string) ([]string, error) {
	var out []string
	err := c.roundTrip(fmt.Sprintf("SMEMBERS %s\n", strconv.Quote(key)), nil,
		func(status string, r *bufio.Reader) error {
			if !strings.HasPrefix(status, "MULTI ") {
				return replyError(status)
			}
			n, err := strconv.Atoi(status[6:])
			if err != nil || n < 0 {
				return fmt.Errorf("kvs: bad MULTI count %q", status)
			}
			for i := 0; i < n; i++ {
				line, err := r.ReadString('\n')
				if err != nil {
					return err
				}
				c.Received.Add(int64(len(line)))
				m, err := strconv.Unquote(strings.TrimSuffix(line, "\n"))
				if err != nil {
					return err
				}
				out = append(out, m)
			}
			return nil
		})
	return out, err
}

// AllKeys implements Lister over the wire.
func (c *Client) AllKeys() ([]KeyInfo, error) {
	var out []KeyInfo
	err := c.roundTrip("KEYS\n", nil,
		func(status string, r *bufio.Reader) error {
			if !strings.HasPrefix(status, "MULTI ") {
				return replyError(status)
			}
			n, err := strconv.Atoi(status[6:])
			if err != nil || n < 0 {
				return fmt.Errorf("kvs: bad MULTI count %q", status)
			}
			for i := 0; i < n; i++ {
				line, err := r.ReadString('\n')
				if err != nil {
					return err
				}
				c.Received.Add(int64(len(line)))
				m, err := strconv.Unquote(strings.TrimSuffix(line, "\n"))
				if err != nil {
					return err
				}
				if len(m) < 2 || m[1] != ':' {
					return fmt.Errorf("kvs: bad KEYS entry %q", m)
				}
				out = append(out, KeyInfo{Kind: Kind(m[0]), Key: m[2:]})
			}
			return nil
		})
	return out, err
}

// Incr implements Store. Increments must not replay on a stale pooled conn —
// a double-applied delta is a lost-update in reverse.
func (c *Client) Incr(key string, delta int64) (int64, error) {
	var out int64
	err := c.roundTripOnce(fmt.Sprintf("INCR %s %d\n", strconv.Quote(key), delta), nil,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			out = n
			return err
		})
	return out, err
}

// Lock implements Store. The call blocks server-side until acquired.
// Acquires must not replay on a stale pooled conn — a replayed LOCK whose
// first application succeeded would leak the first lease until its TTL.
func (c *Client) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	mode := "r"
	if write {
		mode = "w"
	}
	var out uint64
	// useDeadline=false: OpTimeout must not cut short a legitimate blocking
	// acquire; retriable=false: a replayed LOCK would leak its first lease.
	err := c.roundTripDeadline(fmt.Sprintf("LOCK %s %s %d\n", strconv.Quote(key), mode, ttl.Milliseconds()), nil, false, false,
		func(status string, _ *bufio.Reader) error {
			n, err := parseIntReply(status)
			out = uint64(n)
			return err
		})
	return out, err
}

// Unlock implements Store.
func (c *Client) Unlock(key string, token uint64) error {
	return c.roundTrip(fmt.Sprintf("UNLOCK %s %d\n", strconv.Quote(key), token), nil, expectOK)
}

// readBatchVals consumes one MULTI reply carrying want VAL/NIL entries,
// appending the values to out.
func (c *Client) readBatchVals(r *bufio.Reader, want int, out *[][]byte) error {
	status, err := r.ReadString('\n')
	if err != nil {
		return err
	}
	c.Received.Add(int64(len(status)))
	st := strings.TrimSuffix(status, "\n")
	if !strings.HasPrefix(st, "MULTI ") {
		return replyError(st)
	}
	n, err := strconv.Atoi(st[6:])
	if err != nil || n != want {
		return fmt.Errorf("kvs: bad batch reply count %q (want %d)", st, want)
	}
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		c.Received.Add(int64(len(line)))
		v, err := c.readVal(strings.TrimSuffix(line, "\n"), r)
		if err != nil {
			return err
		}
		*out = append(*out, v)
	}
	return nil
}

// batchLines renders one command line per window of at most MaxBatch
// entries, splitting early when a line would overflow the server's line
// cap. prefix opens each line; arg renders entry i including its leading
// space. Returns the lines and each line's entry count.
func batchLines(prefix string, n int, arg func(i int) string) (lines []string, counts []int) {
	var sb strings.Builder
	count := 0
	cut := func() {
		if count > 0 {
			sb.WriteByte('\n')
			lines = append(lines, sb.String())
			counts = append(counts, count)
			sb.Reset()
			count = 0
		}
	}
	for i := 0; i < n; i++ {
		a := arg(i)
		if count >= MaxBatch || (count > 0 && sb.Len()+len(a) >= maxLine-1) {
			cut()
		}
		if count == 0 {
			sb.WriteString(prefix)
		}
		sb.WriteString(a)
		count++
	}
	cut()
	return lines, counts
}

// exchangeWindows runs one pipelined exchange per command line, appending
// each window's VAL/NIL entries to out. The bounded per-window exchange
// keeps client and server from deadlocking on full TCP buffers when both
// sides would otherwise stream megabytes blindly.
func (c *Client) exchangeWindows(lines []string, counts []int, out *[][]byte) error {
	for li, line := range lines {
		err := c.pipelined(len(line), true,
			func(w *bufio.Writer) error {
				_, err := w.WriteString(line)
				return err
			},
			func(r *bufio.Reader) error {
				return c.readBatchVals(r, counts[li], out)
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// MGet implements Batcher over the wire: one pipelined exchange — request
// written, one flush, all replies read — per MGET command of up to MaxBatch
// keys, instead of one round trip per key.
func (c *Client) MGet(keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	lines, counts := batchLines("MGET", len(keys), func(i int) string {
		return " " + strconv.Quote(keys[i])
	})
	out := make([][]byte, 0, len(keys))
	if err := c.exchangeWindows(lines, counts, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// MSet implements Batcher over the wire: the whole batch — split into MSET
// commands of at most MaxBatch entries — is written and flushed once, then
// one OK per command is read back. Unlike MGet, one exchange is safe at any
// size: the server consumes the request stream before each tiny OK reply,
// so reply backpressure cannot wedge the writing client.
func (c *Client) MSet(pairs []Pair) error {
	return c.msetPipelined(pairs, func(n int) string {
		return fmt.Sprintf("MSET %d\n", n)
	})
}

// MSetEx implements Batcher over the wire: MSET's pipeline with a shared
// TTL in each command header. Safe to replay like SetEx.
func (c *Client) MSetEx(pairs []Pair, ttl time.Duration) error {
	ms, err := ttlMillis(ttl)
	if err != nil {
		return err
	}
	return c.msetPipelined(pairs, func(n int) string {
		return fmt.Sprintf("MSETEX %d %d\n", n, ms)
	})
}

// msetPipelined is the shared MSET/MSETEX transport: the whole batch — split
// into commands of at most MaxBatch entries — is written and flushed once,
// then one OK per command is read back. cmdFor renders the command header
// for a chunk of n entries.
func (c *Client) msetPipelined(pairs []Pair, cmdFor func(n int) string) error {
	if len(pairs) == 0 {
		return nil
	}
	// Chunk on both the server's entry cap and its aggregate payload bound
	// (the server buffers a whole MSET before applying).
	var chunks [][]Pair
	start, bytes := 0, 0
	for i, p := range pairs {
		if i > start && (i-start >= MaxBatch || bytes+len(p.Val) > MaxPayload) {
			chunks = append(chunks, pairs[start:i])
			start, bytes = i, 0
		}
		bytes += len(p.Val)
	}
	chunks = append(chunks, pairs[start:])
	// Pre-render entry headers so the request size fed to the transfer
	// counter is the exact byte count send() writes.
	headers := make([][]string, len(chunks))
	cmds := make([]string, len(chunks))
	reqBytes := 0
	for ci, ch := range chunks {
		cmds[ci] = cmdFor(len(ch))
		reqBytes += len(cmds[ci])
		headers[ci] = make([]string, len(ch))
		for i, p := range ch {
			headers[ci][i] = fmt.Sprintf("%s %d\n", strconv.Quote(p.Key), len(p.Val))
			reqBytes += len(headers[ci][i]) + len(p.Val)
		}
	}
	return c.pipelined(reqBytes, true,
		func(w *bufio.Writer) error {
			for ci, ch := range chunks {
				if _, err := w.WriteString(cmds[ci]); err != nil {
					return err
				}
				for i, p := range ch {
					if _, err := w.WriteString(headers[ci][i]); err != nil {
						return err
					}
					if _, err := w.Write(p.Val); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(r *bufio.Reader) error {
			for range chunks {
				status, err := r.ReadString('\n')
				if err != nil {
					return err
				}
				c.Received.Add(int64(len(status)))
				if err := expectOK(strings.TrimSuffix(status, "\n"), r); err != nil {
					return err
				}
			}
			return nil
		})
}

// GetRanges implements Batcher over the wire: all windows of one key in one
// pipelined exchange per GETRANGES command of up to MaxBatch windows. The
// single-observation guarantee holds per command: a batch needing several
// command windows may observe different value versions across them (see the
// Batcher contract).
func (c *Client) GetRanges(key string, ranges []Range) ([][]byte, error) {
	if len(ranges) == 0 {
		return nil, nil
	}
	prefix := "GETRANGES " + strconv.Quote(key)
	lines, counts := batchLines(prefix, len(ranges), func(i int) string {
		return fmt.Sprintf(" %d %d", ranges[i].Off, ranges[i].N)
	})
	out := make([][]byte, 0, len(ranges))
	if err := c.exchangeWindows(lines, counts, &out); err != nil {
		return nil, err
	}
	return out, nil
}

var (
	_ Store   = (*Client)(nil)
	_ Batcher = (*Client)(nil)
)
