package main

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// compareMode is how a stream's output is checked against the reference.
type compareMode int

const (
	// ordered hashes the output bytes in arrival order.
	ordered compareMode = iota
	// multiset hashes rows order-insensitively: a grouped aggregate emits
	// each window's groups in hash-table order, which differs between
	// runs while every row's bytes stay exact.
	multiset
	// tolerant keeps the rows and compares floats within floatClose:
	// aggregates computed on the simulated GPGPU.
	tolerant
)

// digest summarises a stream's output for comparison.
type digest struct {
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
	// Sum and SumSq add up each row's CRC and its square (mod 2^64) in
	// multiset mode; a dropped, added or altered row changes them.
	Sum   uint64 `json:"sum"`
	SumSq uint64 `json:"sum_sq"`
}

func (d *digest) add(rows []byte, osz int, mode compareMode) {
	d.Bytes += int64(len(rows))
	if mode != multiset {
		d.CRC = crc32.Update(d.CRC, castagnoli, rows)
		return
	}
	for off := 0; off+osz <= len(rows); off += osz {
		h := uint64(crc32.Checksum(rows[off:off+osz], castagnoli))
		d.Sum += h
		d.SumSq += h * h
	}
}
