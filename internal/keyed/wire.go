package keyed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"parsum/internal/accum"
	"parsum/internal/core"
)

// Keyed wire envelope: the frame a set of per-key exact partials travels
// in between stores — the unit of key-range rebalancing and anti-entropy
// replication. It extends the single-partial engine envelope the way the
// store extends the single accumulator: the engine name is hoisted once
// (every entry shares it; a store always writes "dense" and rejects any
// other name), then each entry is a length-prefixed key plus that key's
// dense payload in accum.Dense's own binary codec.
//
// Layout (little-endian varints):
//
//	magic   byte = 0xC9
//	version byte = 1
//	engLen  byte (1..255)
//	engine  engLen bytes ("dense", shared by every entry)
//	count   uvarint (number of entries)
//	count × {
//	  keyLen  uvarint (1..MaxKeyLen)
//	  key     keyLen bytes
//	  payLen  uvarint
//	  payload payLen bytes (accum.Dense's MarshalBinary encoding)
//	}
//
// ExportRange emits entries sorted by key, so equal per-key state
// produces byte-identical blobs. Decoding is hardened like the engine
// envelope's codec: every length is checked against the bytes actually remaining
// before anything is allocated, keys beyond MaxKeyLen are rejected, and
// the claimed entry count is bounded by the payload size — arbitrary
// untrusted bytes can neither panic the decoder nor make it allocate
// more than O(len(data)). ImportMerge additionally decodes and validates
// the entire envelope before touching any partition, so a malformed blob
// — including one naming an engine other than dense — leaves the store
// bit-for-bit unchanged.
const (
	keyedMagic   = 0xC9
	keyedVersion = 1
)

// Keyed-envelope errors. Inner payload errors come wrapped from the
// accumulator's own codec.
var (
	ErrWireTruncated = errors.New("keyed: truncated keyed envelope")
	ErrWireInvalid   = errors.New("keyed: invalid keyed envelope")
)

// ExportAll returns the whole store as one keyed envelope — the
// anti-entropy payload a replica ships to its peers.
func (s *Store) ExportAll() ([]byte, error) { return s.ExportRange("", "") }

// ExportRange returns every key k with lo ≤ k < hi (hi == "" means no
// upper bound) as one keyed envelope, entries sorted by key. The export
// is non-destructive — rebalancing pairs it with DeleteRange — and does
// not disturb ingestion: each key is marshaled under its partition lock,
// so every entry is an exact partial of some prefix of that key's
// history. Equal state exports byte-identical blobs.
func (s *Store) ExportRange(lo, hi string) ([]byte, error) {
	var entries []exportEntry
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		for k, a := range p.m {
			if k < lo || (hi != "" && k >= hi) {
				continue
			}
			blob, err := a.MarshalBinary()
			if err != nil {
				p.mu.Unlock()
				return nil, fmt.Errorf("keyed: marshaling key %q: %w", k, err)
			}
			entries = append(entries, exportEntry{key: k, blob: blob})
		}
		p.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return encodeEnvelope(entries), nil
}

// EncodeOne returns the keyed envelope of a single entry: key holding
// a's exact partial. The bytes are those ExportAll gives for a store
// whose only key is key with a's value — the proxy builds each write's
// envelope this way, without a throwaway Store. a is regularized as a
// side effect. key must be a valid store key (non-empty, at most
// MaxKeyLen bytes).
func EncodeOne(key string, a *accum.Dense) ([]byte, error) {
	checkKey(key)
	blob, err := a.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("keyed: marshaling key %q: %w", key, err)
	}
	return encodeEnvelope([]exportEntry{{key: key, blob: blob}}), nil
}

// exportEntry is one key's marshaled partial on its way into an
// envelope.
type exportEntry struct {
	key  string
	blob []byte
}

// encodeEnvelope frames entries, in the order given, as one keyed
// envelope.
func encodeEnvelope(entries []exportEntry) []byte {
	name := core.EngineDense
	size := 3 + len(name) + binary.MaxVarintLen64
	for _, e := range entries {
		size += 2*binary.MaxVarintLen64 + len(e.key) + len(e.blob)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, keyedMagic, keyedVersion, byte(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.AppendUvarint(buf, uint64(len(e.blob)))
		buf = append(buf, e.blob...)
	}
	return buf
}

// wireEntry is one decoded envelope entry: its key (aliasing the
// envelope's bytes — converted to a string only when the key is new to
// the store), the index of the partition owning it, and an accumulator
// from the store's pool holding its partial.
type wireEntry struct {
	key  []byte
	part int
	acc  *accum.Dense
}

// Decoded is a keyed payload decoded and validated end to end, waiting
// to be merged by MergeDecoded into the store that decoded it. Until
// then no key is touched, so a caller can decide to drop it — a
// rejected or failed write — and leave the store as it was.
type Decoded struct{ entries []wireEntry }

// Len is the number of entries the payload carries.
func (d Decoded) Len() int { return len(d.entries) }

// DecodeEnvelope decodes and validates a keyed envelope end to end (the
// decode half of ImportMerge). Like Sharded.MergeBytes it returns errors
// rather than panicking: the payload is remote input. Nothing is
// returned on any error, and every length is checked against the
// remaining bytes before allocation.
func (s *Store) DecodeEnvelope(data []byte) (Decoded, error) {
	if len(data) < 3 {
		return Decoded{}, ErrWireTruncated
	}
	if data[0] != keyedMagic {
		return Decoded{}, fmt.Errorf("%w: bad magic %#x", ErrWireInvalid, data[0])
	}
	if data[1] != keyedVersion {
		return Decoded{}, fmt.Errorf("%w: unsupported version %d", ErrWireInvalid, data[1])
	}
	nameLen := int(data[2])
	if nameLen == 0 {
		return Decoded{}, fmt.Errorf("%w: empty engine name", ErrWireInvalid)
	}
	if len(data) < 3+nameLen {
		return Decoded{}, ErrWireTruncated
	}
	if name := data[3 : 3+nameLen]; string(name) != core.EngineDense {
		return Decoded{}, fmt.Errorf("%w: engine %q, want %q", ErrWireInvalid, name, core.EngineDense)
	}
	rest := data[3+nameLen:]
	count, n := binary.Uvarint(rest)
	if n == 0 {
		return Decoded{}, ErrWireTruncated
	}
	if n < 0 {
		return Decoded{}, fmt.Errorf("%w: entry count varint overflows uint64", ErrWireInvalid)
	}
	rest = rest[n:]
	// The smallest possible entry is 4 bytes (keyLen=1 varint, 1 key
	// byte, payLen varint, and the payload's own minimum — checked again
	// per entry); a count claiming more entries than the remaining bytes
	// could hold is hostile, and rejecting it here bounds the entries
	// allocation by O(len(data)).
	if count > uint64(len(rest))/4+1 {
		return Decoded{}, fmt.Errorf("%w: %d entries claimed but only %d bytes follow", ErrWireTruncated, count, len(rest))
	}
	// On an error below, the accumulators already taken from the pool
	// are left to the collector: a malformed envelope is rare, and the
	// failing one may hold a partial of a foreign width.
	entries := make([]wireEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		keyLen, n := binary.Uvarint(rest)
		if n <= 0 {
			return Decoded{}, badVarint(n, "key length")
		}
		rest = rest[n:]
		if keyLen == 0 || keyLen > MaxKeyLen {
			return Decoded{}, fmt.Errorf("%w: key length %d outside [1,%d]", ErrWireInvalid, keyLen, MaxKeyLen)
		}
		if uint64(len(rest)) < keyLen {
			return Decoded{}, ErrWireTruncated
		}
		key := rest[:keyLen]
		rest = rest[keyLen:]
		payLen, n := binary.Uvarint(rest)
		if n <= 0 {
			return Decoded{}, badVarint(n, "payload length")
		}
		rest = rest[n:]
		if uint64(len(rest)) < payLen {
			return Decoded{}, ErrWireTruncated
		}
		acc := s.reusable()
		if err := core.DecodeDenseInto(acc, rest[:payLen]); err != nil {
			return Decoded{}, fmt.Errorf("keyed: entry %q: %w", key, err)
		}
		rest = rest[payLen:]
		entries = append(entries, wireEntry{key: key, part: partIndex(key, len(s.parts)), acc: acc})
	}
	if len(rest) != 0 {
		return Decoded{}, fmt.Errorf("%w: %d trailing bytes", ErrWireInvalid, len(rest))
	}
	return Decoded{entries}, nil
}

func badVarint(n int, what string) error {
	if n == 0 {
		return ErrWireTruncated
	}
	return fmt.Errorf("%w: %s varint overflows uint64", ErrWireInvalid, what)
}

// DecodePartials decodes and validates a set of per-key engine envelopes
// (the decode half of MergeKeyPartials), including key bounds and the
// dense engine tag.
func (s *Store) DecodePartials(ps []KeyPartial) (Decoded, error) {
	entries := make([]wireEntry, 0, len(ps))
	for _, kp := range ps {
		if kp.Key == "" || len(kp.Key) > MaxKeyLen {
			return Decoded{}, fmt.Errorf("%w: key length %d outside [1,%d]", ErrWireInvalid, len(kp.Key), MaxKeyLen)
		}
		acc, err := core.UnmarshalDensePartial(kp.Blob)
		if err != nil {
			return Decoded{}, fmt.Errorf("keyed: entry %q: %w", kp.Key, err)
		}
		key := []byte(kp.Key)
		entries = append(entries, wireEntry{key: key, part: partIndex(key, len(s.parts)), acc: acc})
	}
	return Decoded{entries}, nil
}

// ImportMerge decodes a keyed envelope, folds every entry into the store
// (creating missing keys), and returns how many entries it merged — the
// reducer half of the keyed exchange. The entire envelope is decoded and
// validated before any partition is touched, so a malformed blob leaves
// the store bit-for-bit unchanged. Merging is exact and commutative;
// importing the same set of exported partials in any order converges
// every key to bit-identical sums (the CRDT property — entries for the
// same key, within or across envelopes, simply add).
func (s *Store) ImportMerge(data []byte) (int, error) {
	d, err := s.DecodeEnvelope(data)
	if err != nil {
		return 0, err
	}
	s.MergeDecoded(d)
	return d.Len(), nil
}

// MergeKeyPartials folds a set of per-key engine envelopes in — the push
// half of the JSON keyed exchange. Every entry is decoded and validated
// before any partition is touched, preserving the
// malformed-input-leaves-state-unchanged contract of ImportMerge.
func (s *Store) MergeKeyPartials(ps []KeyPartial) error {
	d, err := s.DecodePartials(ps)
	if err != nil {
		return err
	}
	s.MergeDecoded(d)
	return nil
}

// MergeDecoded folds a decoded payload in, one partition-lock
// acquisition per touched partition (entries are sorted by partition in
// place). An entry whose key is new is installed as that key's
// accumulator; one whose key exists is merged and its accumulator
// recycled. d must come from this store's Decode methods and be merged
// at most once.
func (s *Store) MergeDecoded(d Decoded) {
	entries := d.entries
	slices.SortFunc(entries, func(a, b wireEntry) int { return a.part - b.part })
	for i := 0; i < len(entries); {
		pi := entries[i].part
		p := &s.parts[pi]
		p.mu.Lock()
		for ; i < len(entries) && entries[i].part == pi; i++ {
			e := entries[i]
			if a, ok := p.m[string(e.key)]; ok {
				a.Merge(e.acc)
				s.recycle(e.acc)
			} else {
				p.m[string(e.key)] = e.acc
			}
		}
		p.mu.Unlock()
	}
}

// ExportPartials returns the keys in [lo, hi) as per-key dense engine
// wire envelopes (core.MarshalDensePartial), sorted by key — the
// JSON-friendly form of ExportRange, each entry independently mergeable
// by any consumer of engine wire partials.
func (s *Store) ExportPartials(lo, hi string) ([]KeyPartial, error) {
	var out []KeyPartial
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		for k, a := range p.m {
			if k < lo || (hi != "" && k >= hi) {
				continue
			}
			blob, err := core.MarshalDensePartial(a)
			if err != nil {
				p.mu.Unlock()
				return nil, fmt.Errorf("keyed: marshaling key %q: %w", k, err)
			}
			out = append(out, KeyPartial{Key: k, Blob: blob})
		}
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
