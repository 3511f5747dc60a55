// Package collect reproduces the paper's data-collection methodology:
// probing advertised RPC endpoints and short-listing the ones with generous
// rate limits and stable latency (6 of 32 for EOS), then crawling block
// history in reverse chronological order over HTTP and WebSocket. It moves
// and counts raw bytes and never deflates them: Figure 2's gzip footprint is
// measured by core.IngestCrawl or by an archive tee.
package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/internal/wsrpc"
)

// readAllRecycled drains r into a buffer recycled through wire.GetRaw, so a
// steady-state crawl reads block payloads without allocating. The returned
// slice is exclusively the caller's; Block.Release sends it back to the
// pool.
func readAllRecycled(r io.Reader) ([]byte, error) {
	buf := wire.GetRaw()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			wire.PutRaw(buf)
			return nil, err
		}
	}
}

// Dial builds the chain's client for one endpoint. It returns the fetcher,
// a close func to defer, and the most fetch workers the client supports
// (0 = no limit): an XRP client holds one WebSocket, whose protocol is
// sequential per connection, so it gets one worker. Nothing connects until
// the first request.
func Dial(chain, endpoint string) (f BlockFetcher, closeFn func(), maxWorkers int, err error) {
	switch chain {
	case "eos":
		return NewEOSClient(endpoint), func() {}, 0, nil
	case "tezos":
		return NewTezosClient(endpoint), func() {}, 0, nil
	case "xrp":
		c := NewXRPClient(endpoint)
		return c, func() { c.Close() }, 1, nil
	}
	return nil, nil, 0, fmt.Errorf("collect: unknown chain %q", chain)
}

// ErrRateLimited signals an HTTP 429; the crawler backs off and retries.
type rateLimitError struct{ retryAfter time.Duration }

func (e rateLimitError) Error() string {
	return fmt.Sprintf("collect: rate limited (retry after %v)", e.retryAfter)
}

// RetryAfter surfaces the server's pacing hint to retry.Policy, which
// stretches its next backoff to at least this long.
func (e rateLimitError) RetryAfter() time.Duration { return e.retryAfter }

// EOSClient talks to one nodeos-style endpoint.
type EOSClient struct {
	BaseURL string
	HTTP    *http.Client
}

// NewEOSClient wraps an endpoint URL.
func NewEOSClient(baseURL string) *EOSClient {
	return &EOSClient{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *EOSClient) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c.HTTP, req)
}

// do sends req and reads the reply's body into a wire.GetRaw buffer the
// caller owns. A reply other than 200 is an error, and a 429 one the
// crawler backs off from.
func do(hc *http.Client, req *http.Request) ([]byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readAllRecycled(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return raw, nil
	case http.StatusTooManyRequests:
		wire.PutRaw(raw)
		return nil, rateLimitError{retryAfter: time.Second}
	default:
		wire.PutRaw(raw)
		return nil, fmt.Errorf("collect: %s returned %s", req.URL, resp.Status)
	}
}

// OwnsRaw marks FetchBlock results as exclusively caller-owned, letting the
// stream recycle released payload buffers (see RawRecycler).
func (c *EOSClient) OwnsRaw() bool { return true }

// Head returns the endpoint's current head block number.
func (c *EOSClient) Head(ctx context.Context) (int64, error) {
	raw, err := c.post(ctx, "/v1/chain/get_info", []byte("{}"))
	if err != nil {
		return 0, err
	}
	defer wire.PutRaw(raw)
	var info struct {
		HeadBlockNum int64 `json:"head_block_num"`
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		return 0, fmt.Errorf("collect: decoding get_info: %w", err)
	}
	return info.HeadBlockNum, nil
}

// FetchBlock retrieves one block as raw JSON.
func (c *EOSClient) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	body := strconv.AppendInt([]byte(`{"block_num_or_id":`), num, 10)
	return c.post(ctx, "/v1/chain/get_block", append(body, '}'))
}

// TezosClient talks to an octez-style endpoint.
type TezosClient struct {
	BaseURL string
	HTTP    *http.Client
}

// NewTezosClient wraps an endpoint URL.
func NewTezosClient(baseURL string) *TezosClient {
	return &TezosClient{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *TezosClient) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c.HTTP, req)
}

// OwnsRaw marks FetchBlock results as exclusively caller-owned.
func (c *TezosClient) OwnsRaw() bool { return true }

// Head returns the current head level.
func (c *TezosClient) Head(ctx context.Context) (int64, error) {
	raw, err := c.get(ctx, c.BaseURL+"/chains/main/blocks/head")
	if err != nil {
		return 0, err
	}
	defer wire.PutRaw(raw)
	var b struct {
		Level int64 `json:"level"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return 0, fmt.Errorf("collect: decoding head: %w", err)
	}
	return b.Level, nil
}

// FetchBlock retrieves one block as raw JSON.
func (c *TezosClient) FetchBlock(ctx context.Context, level int64) ([]byte, error) {
	var b [128]byte
	url := append(append(b[:0], c.BaseURL...), "/chains/main/blocks/"...)
	return c.get(ctx, string(strconv.AppendInt(url, level, 10)))
}

// XRPClient speaks the rippled WebSocket protocol over a pooled connection.
type XRPClient struct {
	URL string

	mu    sync.Mutex
	conn  *wsrpc.Conn
	next  int64
	codec *wire.Codec // splits response envelopes; guarded by mu
	req   []byte      // the command being sent; guarded by mu
}

// NewXRPClient wraps a ws:// endpoint.
func NewXRPClient(url string) *XRPClient {
	return &XRPClient{URL: url, codec: wire.NewCodec()}
}

// OwnsRaw marks FetchBlock results as exclusively caller-owned: each call
// returns a wire.GetRaw buffer, holding the reply's result member, that no
// one else references.
func (c *XRPClient) OwnsRaw() bool { return true }

func (c *XRPClient) ensure() (*wsrpc.Conn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	conn, err := wsrpc.Dial(c.URL)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return conn, nil
}

// Close releases the underlying connection.
func (c *XRPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// call performs one command round trip — server_info, or ledger with
// expanded transactions — and returns the response's result member in a
// wire.GetRaw buffer the caller owns. The WebSocket protocol is sequential
// per connection, so calls are serialized. A peer that stops answering
// would park the read forever, so cancelling ctx closes the connection
// under it; the next call redials.
func (c *XRPClient) call(ctx context.Context, command string, ledger int64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := c.ensure()
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	result, err := c.roundTrip(conn, command, ledger)
	if !stop() {
		// ctx ended mid-call: the connection is closing, whatever the
		// round trip managed to read.
		c.conn = nil
		wire.PutRaw(result)
		return nil, ctx.Err()
	}
	return result, err
}

// drop abandons conn so ensure redials. The connection may still be alive (a
// well-formed frame that was not the reply awaited), so it is closed, not
// just forgotten. Called with c.mu held.
func (c *XRPClient) drop(conn *wsrpc.Conn) {
	c.conn = nil
	conn.Close()
}

// appendCommand appends one request with the given id, its keys in the
// order encoding/json gives a map's: the ledger command asks for expanded
// transactions; any other command carries no parameters.
func appendCommand(dst []byte, id int64, command string, ledger int64) []byte {
	dst = append(append(append(dst, `{"command":"`...), command...), '"')
	if command == "ledger" {
		dst = append(dst, `,"expand":true`...)
	}
	dst = strconv.AppendInt(append(dst, `,"id":`...), id, 10)
	if command == "ledger" {
		dst = strconv.AppendInt(append(dst, `,"ledger_index":`...), ledger, 10)
		dst = append(dst, `,"transactions":true`...)
	}
	return append(dst, '}')
}

// roundTrip writes one command and reads its response into a wire.GetRaw
// buffer. The frame's envelope is split in place
// (wire.Codec.SplitXRPEnvelope) and the result member moved to the front
// of that same buffer, which is what the caller gets. A transport error, a
// frame that is not an envelope or a reply to some other request drops the
// connection. Called with c.mu held.
func (c *XRPClient) roundTrip(conn *wsrpc.Conn, command string, ledger int64) ([]byte, error) {
	c.next++
	c.req = appendCommand(c.req[:0], c.next, command, ledger)
	if err := conn.WriteMessage(wsrpc.OpText, c.req); err != nil {
		c.drop(conn)
		return nil, err
	}
	_, frame, err := conn.ReadMessageInto(wire.GetRaw())
	if err != nil {
		wire.PutRaw(frame)
		c.drop(conn)
		return nil, err
	}
	var resp wire.XRPEnvelope
	if err := c.codec.SplitXRPEnvelope(frame, &resp); err != nil {
		wire.PutRaw(frame)
		c.drop(conn)
		return nil, fmt.Errorf("collect: decoding xrp response: %w", err)
	}
	if resp.ID != c.next {
		// One reply per request, in order: another id means the connection
		// is a reply out of step, and every later read on it would be too.
		wire.PutRaw(frame)
		c.drop(conn)
		return nil, fmt.Errorf("collect: xrp reply carries id %d while request %d is outstanding: connection desynchronised", resp.ID, c.next)
	}
	if resp.Status != "success" {
		wire.PutRaw(frame)
		return nil, fmt.Errorf("collect: xrp command failed: %s", resp.Error)
	}
	return frame[:copy(frame, resp.Result)], nil
}

// Head returns the latest validated ledger index.
func (c *XRPClient) Head(ctx context.Context) (int64, error) {
	raw, err := c.call(ctx, "server_info", 0)
	if err != nil {
		return 0, err
	}
	defer wire.PutRaw(raw)
	var res struct {
		Info struct {
			ValidatedLedger struct {
				Seq int64 `json:"seq"`
			} `json:"validated_ledger"`
		} `json:"info"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return 0, fmt.Errorf("collect: decoding server_info: %w", err)
	}
	return res.Info.ValidatedLedger.Seq, nil
}

// FetchBlock retrieves one ledger (with expanded transactions) as raw JSON.
func (c *XRPClient) FetchBlock(ctx context.Context, index int64) ([]byte, error) {
	return c.call(ctx, "ledger", index)
}
