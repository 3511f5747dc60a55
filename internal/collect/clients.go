// Package collect reproduces the paper's data-collection methodology:
// probing advertised RPC endpoints and short-listing the ones with generous
// rate limits and stable latency (6 of 32 for EOS), then crawling block
// history in reverse chronological order over HTTP and WebSocket while
// accounting for the gzip-compressed footprint of everything fetched
// (Figure 2's storage column).
package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

func (c *EOSClient) post(ctx context.Context, path string, body any) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("collect: marshaling request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
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
		err := fmt.Errorf("collect: %s%s returned %s", c.BaseURL, path, resp.Status)
		wire.PutRaw(raw)
		return nil, err
	}
}

// OwnsRaw marks FetchBlock results as exclusively caller-owned, letting the
// stream recycle released payload buffers (see RawRecycler).
func (c *EOSClient) OwnsRaw() bool { return true }

// Head returns the endpoint's current head block number.
func (c *EOSClient) Head(ctx context.Context) (int64, error) {
	raw, err := c.post(ctx, "/v1/chain/get_info", map[string]any{})
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
	return c.post(ctx, "/v1/chain/get_block", map[string]any{"block_num_or_id": num})
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

func (c *TezosClient) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
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
		err := fmt.Errorf("collect: %s%s returned %s", c.BaseURL, path, resp.Status)
		wire.PutRaw(raw)
		return nil, err
	}
}

// OwnsRaw marks FetchBlock results as exclusively caller-owned.
func (c *TezosClient) OwnsRaw() bool { return true }

// Head returns the current head level.
func (c *TezosClient) Head(ctx context.Context) (int64, error) {
	raw, err := c.get(ctx, "/chains/main/blocks/head")
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
	return c.get(ctx, fmt.Sprintf("/chains/main/blocks/%d", level))
}

// XRPClient speaks the rippled WebSocket protocol over a pooled connection.
type XRPClient struct {
	URL string

	mu    sync.Mutex
	conn  *wsrpc.Conn
	next  int64
	codec *wire.Codec // splits response envelopes; guarded by mu
}

// NewXRPClient wraps a ws:// endpoint.
func NewXRPClient(url string) *XRPClient {
	return &XRPClient{URL: url, codec: wire.NewCodec()}
}

// OwnsRaw marks FetchBlock results as exclusively caller-owned: each call
// returns the result member copied into a wire.GetRaw buffer no one else
// references.
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

// call performs one command round trip and returns the response's result
// member in a wire.GetRaw buffer the caller owns. The WebSocket protocol is
// sequential per connection, so calls are serialized. A peer that stops
// answering would park the read forever, so cancelling ctx closes the
// connection under it; the next call redials.
func (c *XRPClient) call(ctx context.Context, req map[string]any) ([]byte, error) {
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
	result, err := c.roundTrip(conn, req)
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

// roundTrip writes one command and reads its response. The frame's envelope
// is split in place (wire.Codec.SplitXRPEnvelope) and only the result member
// is copied out, once, into a recycled buffer; the frame buffer stays
// wsrpc's. A transport error, a frame that is not an envelope or a reply to
// some other request drops the connection. Called with c.mu held.
func (c *XRPClient) roundTrip(conn *wsrpc.Conn, req map[string]any) ([]byte, error) {
	c.next++
	req["id"] = c.next
	if err := conn.WriteJSON(req); err != nil {
		c.drop(conn)
		return nil, err
	}
	_, frame, err := conn.ReadMessage()
	if err != nil {
		c.drop(conn)
		return nil, err
	}
	var resp wire.XRPEnvelope
	if err := c.codec.SplitXRPEnvelope(frame, &resp); err != nil {
		c.drop(conn)
		return nil, fmt.Errorf("collect: decoding xrp response: %w", err)
	}
	if resp.ID != c.next {
		// One reply per request, in order: another id means the connection
		// is a reply out of step, and every later read on it would be too.
		c.drop(conn)
		return nil, fmt.Errorf("collect: xrp reply carries id %d while request %d is outstanding: connection desynchronised", resp.ID, c.next)
	}
	if resp.Status != "success" {
		return nil, fmt.Errorf("collect: xrp command failed: %s", resp.Error)
	}
	return append(wire.GetRaw(), resp.Result...), nil
}

// Head returns the latest validated ledger index.
func (c *XRPClient) Head(ctx context.Context) (int64, error) {
	raw, err := c.call(ctx, map[string]any{"command": "server_info"})
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
	return c.call(ctx, map[string]any{
		"command":      "ledger",
		"ledger_index": index,
		"transactions": true,
		"expand":       true,
	})
}
