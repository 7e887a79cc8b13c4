package repo

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// Footer fields encodeEntry writes as constants, at their offsets from
// the start of the footer: an accepted entry may carry any value there.
const (
	footerVersionAt = 8
	footerPadAt     = 28
)

// maskFooterConstants zeroes an entry's footer version and pad fields.
func maskFooterConstants(raw []byte) []byte {
	out := bytes.Clone(raw)
	f := out[len(out)-footerSize:]
	clear(f[footerVersionAt : footerVersionAt+4])
	clear(f[footerPadAt : footerPadAt+4])
	return out
}

// FuzzDecodeEntry: decodeEntry reads files that any process sharing the
// repository directory can write. Whatever the bytes, it returns an
// error or a key and payload without panicking; an entry it accepts
// re-encodes to its own bytes, except the footer's version and pad
// fields; and encodeEntry → decodeEntry returns any key and payload
// unchanged.
func FuzzDecodeEntry(f *testing.F) {
	entry := encodeEntry("Univ-1 M.S. CS|sarsa|60|3||false|0|0|0123456789abcdef", []byte("policy artifact bytes"))
	at := func(field int) int { return len(entry) - footerSize + field }
	with := func(edit func(b []byte)) []byte {
		b := bytes.Clone(entry)
		edit(b)
		return b
	}
	f.Add(entry)
	f.Add(entry[:len(entry)-1])
	f.Add(with(func(b []byte) { b[at(24)] ^= 0xff })) // a CRC32 byte
	f.Add(with(func(b []byte) { binary.LittleEndian.PutUint64(b[at(16):], math.MaxUint64) }))
	f.Add(with(func(b []byte) { binary.LittleEndian.PutUint32(b[at(12):], math.MaxUint32) }))
	f.Add(with(func(b []byte) { binary.LittleEndian.PutUint64(b[at(16):], 1<<63) }))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if key, payload, err := decodeEntry(raw); err == nil {
			again := encodeEntry(key, payload)
			if !bytes.Equal(maskFooterConstants(again), maskFooterConstants(raw)) {
				t.Fatalf("accepted entry %x re-encodes to %x", raw, again)
			}
		}
		key, payload := string(raw[:len(raw)/3]), raw[len(raw)/3:]
		k, p, err := decodeEntry(encodeEntry(key, payload))
		if err != nil || k != key || !bytes.Equal(p, payload) {
			t.Fatalf("encodeEntry(%q, %x) decodes to %q, %x, %v", key, payload, k, p, err)
		}
	})
}
