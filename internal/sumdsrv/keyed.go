package sumdsrv

// Keyed endpoints: the network surface of the multi-key exact
// aggregation store.
//
//	POST /v1/add?key=K    (or JSON {"key":K,...}) — ingest into key K
//	POST /v1/sub?key=K    — delete from key K exactly
//	GET  /v1/sum?key=K    — key K's sum, rounded once (404 when absent)
//	GET  /v1/keys         — sorted live keys; ?lo=&hi= select a range
//	GET  /v1/keyed/partial — the keyed state as one binary keyed
//	                  envelope (?lo=&hi= select a key range;
//	                  ?format=json returns per-key wire partials in JSON)
//	POST /v1/keyed/partial — merge a keyed envelope (octet-stream) or a
//	                  JSON {"partials":[{"key":...,"blob":...}]} document
//
// The push/pull pair is the anti-entropy loop: two sumd instances that
// exchange GET→POST in either order converge to bit-identical per-key
// sums (the keyed store's CRDT property), and a pull of [lo, hi)
// followed by a remote push and a local reset of that range is an exact
// key-range rebalance. Malformed payloads — including envelopes and
// partials naming any engine but dense — are rejected with 400 without
// disturbing any key.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"parsum/internal/core"
	"parsum/internal/keyed"
	"parsum/internal/wal"
)

// KeysResponse is the GET /v1/keys payload.
type KeysResponse struct {
	Keys  []string `json:"keys"`
	Count int      `json:"count"`
}

// KeyedPartialsRequest is the JSON form of POST /v1/keyed/partial; each
// blob is a base64-encoded dense engine wire partial (the bytes of a
// dense Accumulator.MarshalBinary).
type KeyedPartialsRequest struct {
	Partials []keyed.KeyPartial `json:"partials"`
}

// KeyedPartialsResponse is the JSON form of GET /v1/keyed/partial.
type KeyedPartialsResponse struct {
	Engine   string             `json:"engine"`
	Partials []keyed.KeyPartial `json:"partials"`
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lo, hi := q.Get("lo"), q.Get("hi")
	keys := s.keyed.KeysRange(lo, hi)
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, KeysResponse{Keys: keys, Count: len(keys)})
}

// handleGetKeyed serves the keyed state — the pull half of the keyed
// exchange. Default is the binary keyed envelope; ?format=json serves
// per-key wire partials for consumers that cannot carry binary bodies.
func (s *Server) handleGetKeyed(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lo, hi := q.Get("lo"), q.Get("hi")
	switch format := q.Get("format"); format {
	case "", "binary":
		blob, err := s.keyed.ExportRange(lo, hi)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		s.st.bump(&s.st.keyedSums)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		_, _ = w.Write(blob)
	case "json":
		ps, err := s.keyed.ExportPartials(lo, hi)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if ps == nil {
			ps = []keyed.KeyPartial{}
		}
		s.st.bump(&s.st.keyedSums)
		writeJSON(w, http.StatusOK, KeyedPartialsResponse{Engine: core.EngineDense, Partials: ps})
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want binary or json)", format))
	}
}

// handlePushKeyed merges remote keyed state — the push half of the keyed
// exchange. Both body forms decode and validate the entire payload before
// it is journaled, so a rejected push leaves the store bit-for-bit
// unchanged and never reaches the log. An Idempotency-Key header
// deduplicates retried pushes through the token window.
func (s *Server) handlePushKeyed(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	rec := wal.Record{Type: wal.RecKeyedJSON, Blob: body}
	if mediaType(r) == "application/octet-stream" {
		rec.Type = wal.RecKeyedEnvelope
	}
	merged, ok := s.push(w, r, rec)
	if !ok {
		return
	}
	s.st.addKeyedPartials(merged)
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, mergedResponse{Merged: merged})
}

// decodeKeyedJSON decodes a JSON keyed push body strictly: no unknown
// fields, nothing after the document.
func (s *Server) decodeKeyedJSON(body []byte) (keyed.Decoded, error) {
	var req KeyedPartialsRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return keyed.Decoded{}, fmt.Errorf("decoding keyed partials: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return keyed.Decoded{}, errors.New("trailing data after keyed partials")
	}
	return s.keyed.DecodePartials(req.Partials)
}
