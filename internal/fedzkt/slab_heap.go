//go:build !unix || race

package fedzkt

import "errors"

// mapChunk maps nothing: on a platform without anonymous mappings, and in
// a -race build, whose detector would not see the slot bytes in one, every
// slot buffer is made on the heap (slab.take).
func mapChunk(int) ([]byte, error) {
	return nil, errors.New("fedzkt: no anonymous mappings in this build")
}

// unmapChunk is never reached: mapChunk maps nothing.
func unmapChunk([]byte) error { return nil }
