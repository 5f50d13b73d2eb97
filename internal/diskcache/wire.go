package diskcache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	regalloc "repro"
	"repro/internal/irbin"
)

// magic opens every wire-form entry. It shares the LS* family with the
// codec ("LSIR") and corpus ("LSCO") magics.
const magic = "LSDE"

// Encode renders one cache entry in the wire form, the disk tier's
// on-disk record and the payload of the cluster's replication endpoints
// (GET /cache/export, POST /cache/seed in internal/serve):
//
//	"LSDE" | uvarint keyLen | key | irbin frame | JSON report
//
// The frame is the entry's own bytes, copied verbatim; it is
// self-delimiting, so the report simply occupies the rest of the
// buffer. No machine definition travels with it: the key already
// content-addresses machine and configuration.
func Encode(key regalloc.CacheKey, e *regalloc.CachedAllocation) ([]byte, error) {
	if e == nil || len(e.Frame) == 0 || e.Report == nil {
		return nil, fmt.Errorf("diskcache: encode: incomplete entry")
	}
	rep, err := json.Marshal(e.Report)
	if err != nil {
		return nil, fmt.Errorf("diskcache: encode report: %w", err)
	}
	buf := make([]byte, 0, len(magic)+binary.MaxVarintLen64+len(key)+len(e.Frame)+len(rep))
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = append(buf, e.Frame...)
	return append(buf, rep...), nil
}

// Decode parses a wire-form entry back into its cache key and entry.
// It checks the frame's header and length, not the program inside: a
// frame that later fails to decode is a miss for the engine, and the
// replication endpoint decodes and validates what it is sent. The
// returned entry shares no memory with data.
func Decode(data []byte) (regalloc.CacheKey, *regalloc.CachedAllocation, error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return "", nil, fmt.Errorf("diskcache: decode: bad magic")
	}
	data = data[len(magic):]
	keyLen, n := binary.Uvarint(data)
	if n <= 0 || keyLen == 0 || keyLen > uint64(len(data)-n) {
		return "", nil, fmt.Errorf("diskcache: decode: bad key length")
	}
	key := string(data[n : n+int(keyLen)])
	rest := data[n+int(keyLen):]
	frameLen, err := irbin.FrameSize(rest)
	if err != nil {
		return "", nil, fmt.Errorf("diskcache: decode program: %w", err)
	}
	var rep regalloc.Report
	if err := json.Unmarshal(rest[frameLen:], &rep); err != nil {
		return "", nil, fmt.Errorf("diskcache: decode report: %w", err)
	}
	return regalloc.CacheKey(key), &regalloc.CachedAllocation{Frame: bytes.Clone(rest[:frameLen]), Report: &rep}, nil
}
