package sumdclient

// Keyed client surface: the worker-side half of the multi-key exact
// aggregation protocol. AddKeyed/SubKeyed/SumKey address one key of the
// service's keyed store; PullKeyed/PushKeyed exchange whole key ranges
// as binary keyed envelopes (the anti-entropy / rebalance hop); and
// KeyedCombiner is the map-side combiner for keyed data — accumulate
// locally per key, then ship the whole local store in one push.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"parsum/internal/f64le"
	"parsum/internal/keyed"
)

func keyQuery(key string) string { return "?key=" + url.QueryEscape(key) }

func rangeQuery(path, lo, hi string) string {
	q := url.Values{}
	if lo != "" {
		q.Set("lo", lo)
	}
	if hi != "" {
		q.Set("hi", hi)
	}
	if enc := q.Encode(); enc != "" {
		return path + "?" + enc
	}
	return path
}

// AddKeyed ships xs into key's accumulator on the service as raw
// little-endian float64s — exact for every value, including non-finite
// ones. An empty xs still registers the key at exact +0.
func (c *Client) AddKeyed(ctx context.Context, key string, xs []float64) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/add"+keyQuery(key), "application/octet-stream", f64le.Append(nil, xs))
	return err
}

// SubKeyed deletes xs exactly from key's accumulator — the inverse of
// AddKeyed.
func (c *Client) SubKeyed(ctx context.Context, key string, xs []float64) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/sub"+keyQuery(key), "application/octet-stream", f64le.Append(nil, xs))
	return err
}

// SumKey returns key's correctly rounded exact sum, reconstructed from
// the served IEEE bit pattern. ok is false when the service has never
// seen the key.
func (c *Client) SumKey(ctx context.Context, key string) (v float64, ok bool, err error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/sum"+keyQuery(key), "", nil)
	if err != nil {
		var ae *apiError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			return 0, false, nil
		}
		return 0, false, err
	}
	v, err = decodeSumBits(data)
	return v, err == nil, err
}

func decodeSumBits(data []byte) (float64, error) {
	var resp struct {
		Bits string `json:"bits"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, fmt.Errorf("sumd: decoding sum response: %w", err)
	}
	bits, err := strconv.ParseUint(resp.Bits, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("sumd: bad bits field %q: %w", resp.Bits, err)
	}
	return math.Float64frombits(bits), nil
}

// Keys returns the service's sorted live keys x with lo ≤ x < hi;
// hi == "" means no upper bound and lo == "" no lower bound.
func (c *Client) Keys(ctx context.Context, lo, hi string) ([]string, error) {
	data, err := c.do(ctx, http.MethodGet, rangeQuery("/v1/keys", lo, hi), "", nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("sumd: decoding keys response: %w", err)
	}
	return resp.Keys, nil
}

// PullKeyed returns the service's keyed state for keys in [lo, hi) as
// one binary keyed envelope — the pull half of the keyed exchange, and
// with a remote PushKeyed the exact-rebalance hop.
func (c *Client) PullKeyed(ctx context.Context, lo, hi string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, rangeQuery("/v1/keyed/partial", lo, hi), "", nil)
}

// PushKeyed merges a binary keyed envelope (Keyed.ExportRange or a peer
// service's PullKeyed) into the service and returns how many keys were
// merged. A rejected push (malformed, or naming an engine other than
// dense) leaves the service's keyed state bit-for-bit unchanged.
func (c *Client) PushKeyed(ctx context.Context, blob []byte) (int, error) {
	data, err := c.do(ctx, http.MethodPost, "/v1/keyed/partial", "application/octet-stream", blob)
	if err != nil {
		return 0, err
	}
	return decodeMerged(data)
}

// PullKeyedPartials returns the keys in [lo, hi) as per-key wire
// partials — the JSON form of PullKeyed for consumers that cannot carry
// binary bodies.
func (c *Client) PullKeyedPartials(ctx context.Context, lo, hi string) ([]keyed.KeyPartial, error) {
	q := url.Values{"format": {"json"}}
	if lo != "" {
		q.Set("lo", lo)
	}
	if hi != "" {
		q.Set("hi", hi)
	}
	data, err := c.do(ctx, http.MethodGet, "/v1/keyed/partial?"+q.Encode(), "", nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Partials []keyed.KeyPartial `json:"partials"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("sumd: decoding keyed partials: %w", err)
	}
	return resp.Partials, nil
}

// PushKeyedPartials merges per-key wire partials into the service (the
// JSON form of PushKeyed) and returns how many keys were merged.
func (c *Client) PushKeyedPartials(ctx context.Context, ps []keyed.KeyPartial) (int, error) {
	body, err := json.Marshal(struct {
		Partials []keyed.KeyPartial `json:"partials"`
	}{Partials: ps})
	if err != nil {
		return 0, err
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/keyed/partial", "application/json", body)
	if err != nil {
		return 0, err
	}
	return decodeMerged(data)
}

func decodeMerged(data []byte) (int, error) {
	var resp struct {
		Merged int `json:"merged"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, fmt.Errorf("sumd: decoding merge response: %w", err)
	}
	return resp.Merged, nil
}

// KeyedCombiner is the map-side combiner for keyed data: a local keyed
// store plus the client to flush it through. A worker accumulates its
// share of every key locally — one exact accumulator per touched key —
// then Flush ships the whole local state as one keyed envelope. Because
// per-key exact summation is a commutative group, flushing after every
// batch or once at the end yields the same final bits on the service,
// no matter how keys were spread across combiners. Not safe for
// concurrent use — each worker goroutine should own one.
type KeyedCombiner struct {
	c *Client
	k *keyed.Store

	// pending/token stage an exported envelope whose push has not been
	// acknowledged, exactly like Combiner.pending: a retried Flush
	// re-sends the identical envelope under the identical idempotency
	// token, so a lost response can never double-apply the keys.
	pending []byte
	token   string
}

// NewKeyedCombiner returns an empty KeyedCombiner flushing through c.
func (c *Client) NewKeyedCombiner() *KeyedCombiner {
	return &KeyedCombiner{c: c, k: keyed.New(keyed.Options{Partitions: 1})}
}

// Add accumulates every element of xs exactly into key's local partial.
func (co *KeyedCombiner) Add(key string, xs []float64) { co.k.Add(key, xs) }

// Sub deletes every element of xs exactly from key's local partial —
// retractions batch into the same combiner as insertions and flush in
// one hop.
func (co *KeyedCombiner) Sub(key string, xs []float64) { co.k.Sub(key, xs) }

// Len returns the number of locally buffered keys.
func (co *KeyedCombiner) Len() int { return co.k.Len() }

// Flush serializes the local keyed state, pushes it to the service as
// one keyed envelope, and resets the local store so the combiner can
// keep accumulating. It returns how many keys the service merged in
// this call (0 when a retried envelope was deduplicated — the service
// already held those keys from the attempt whose response was lost).
//
// Like Combiner.Flush, it is safe to retry after any error: the
// envelope is staged with an idempotency token before the first send,
// so the keys land exactly once no matter how many sends it takes.
func (co *KeyedCombiner) Flush(ctx context.Context) (int, error) {
	if co.pending != nil {
		if _, err := co.pushPending(ctx); err != nil {
			return 0, err
		}
	}
	if co.k.Len() == 0 {
		return 0, nil
	}
	blob, err := co.k.ExportAll()
	if err != nil {
		return 0, err
	}
	co.k.Reset()
	co.pending, co.token = blob, newIdemToken()
	return co.pushPending(ctx)
}

func (co *KeyedCombiner) pushPending(ctx context.Context) (int, error) {
	data, err := co.c.doIdem(ctx, http.MethodPost, "/v1/keyed/partial", "application/octet-stream", co.token, co.pending, false)
	if err != nil {
		return 0, err
	}
	co.pending, co.token = nil, ""
	return decodeMerged(data)
}
