package journal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"proverattest/internal/cluster"
)

// FuzzJournalReplay throws arbitrary bytes at the record replayer — the
// code that consumes whatever a crash left on disk — and asserts the
// replay invariants: never panic, never apply a record whose embedded
// DeviceID disagrees with its key, and account for every dropped record
// (skipped counter or truncated flag, never silence).
func FuzzJournalReplay(f *testing.F) {
	// Seed with a well-formed journal body so the fuzzer starts from valid
	// framing and mutates toward interesting corruption.
	var snap cluster.Snapshot
	snap.State.Counter = 42
	snap.State.NonceSeq = 43
	valid := appendRecord(nil, recPut, "dev-a", &snap)
	valid = appendRecord(valid, recTombstone, "dev-b", nil)
	valid = appendRecord(valid, recClean, "", nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                     // torn tail
	f.Add([]byte{})                                 // empty file
	f.Add([]byte{0xFF, 0xFF, 0xFF})                 // short length prefix
	f.Add(binary.LittleEndian.AppendUint32(nil, 0)) // zero-length record

	// Key/DeviceID mismatch seed: framing intact, embedded ID wrong.
	mis := []byte{recPut}
	mis = binary.LittleEndian.AppendUint16(mis, 5)
	mis = append(mis, "dev-x"...)
	mis = cluster.AppendStatePush(mis, "dev-y", &snap)
	mm := binary.LittleEndian.AppendUint32(nil, uint32(len(mis)))
	f.Add(append(mm, mis...))

	f.Fuzz(func(t *testing.T, data []byte) {
		state := make(map[string]cluster.Snapshot)
		res := replayRecords(data, 1<<20, state)

		// Every applied snapshot must round-trip: re-encoding the record for
		// its map key must embed that same key.
		for id, s := range state {
			frame := cluster.AppendStatePush(nil, id, &s)
			gotID, _, err := cluster.DecodeStatePush(frame)
			if err != nil || gotID != id {
				t.Fatalf("applied state for %q does not round-trip: %v", id, err)
			}
		}

		// Walk the framing with a model of the record rules: a put applies
		// when its embedded ID matches its key, a tombstone deletes, and a
		// record the walk cannot use is dropped, as is everything after a
		// bad length prefix. Replay must end with exactly the model's state
		// and must flag every drop.
		want := make(map[string]cluster.Snapshot)
		dropped := false
		buf := data
		for len(buf) >= 4 {
			n := binary.LittleEndian.Uint32(buf)
			if n == 0 || n > 1<<20 || uint32(len(buf)-4) < n {
				break
			}
			payload := buf[4 : 4+n]
			buf = buf[4+n:]
			kind, key, body, ok := splitRecord(payload)
			switch {
			case !ok:
				dropped = true
			case kind == recPut:
				if id, snap, err := cluster.DecodeStatePush(body); err == nil && id == key {
					want[key] = snap
				} else {
					dropped = true
				}
			case kind == recTombstone:
				delete(want, key)
			case kind != recClean:
				dropped = true
			}
		}
		if len(state) != len(want) {
			t.Fatalf("replay applied %d entries, the valid records leave %d", len(state), len(want))
		}
		for id, w := range want {
			got, ok := state[id]
			if !ok || !bytes.Equal(cluster.AppendStatePush(nil, id, &got), cluster.AppendStatePush(nil, id, &w)) {
				t.Fatalf("replay's state for %q differs from the last valid put", id)
			}
		}
		if (dropped || len(buf) > 0) && res.skipped == 0 && !res.truncated {
			t.Fatal("records dropped without accounting")
		}
	})
}
