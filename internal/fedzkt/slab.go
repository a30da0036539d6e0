package fedzkt

import (
	"os"
	"runtime"
	"sync/atomic"
)

// mappedBytes is the bytes of every live slab mapping in the process,
// served as fedzkt_store_mapped_bytes: runtime.MemStats does not see them.
var mappedBytes atomic.Int64

// minSlabChunk is the first chunk's least length; each later chunk is at
// least twice the one before it.
const minSlabChunk = 1 << 20

// slab hands out a store's slot buffers (slotStore.vacated) from anonymous
// mappings, where the platform has them (mapChunk): the kernel supplies a
// zero page at a page's first touch, so a buffer costs no heap allocation
// and no CPU to zero, in a fresh process and in one whose heap has held
// federations before alike — the heap zeroes a reused span when it hands
// it out. Chunks double, so N buffers take O(log N) mappings. A buffer's
// capacity is its length: an append that outgrows it moves to the heap and
// never reaches the next buffer in its chunk.
//
// Without mappings (mapChunk fails: a platform without them, a -race
// build, whose detector watches only the Go heap, or the kernel refusing)
// each buffer is made on the heap.
//
// A slab is a leaf: nothing it refers to refers back to its store, so a
// finalizer on it unmaps the chunks of a store that is dropped without
// slotStore.close. Its owner serialises take and release.
type slab struct {
	chunks [][]byte
	off    int  // bytes handed out of the last chunk
	heap   bool // mapping failed once: every later buffer is the heap's
}

// newSlab returns an empty slab whose chunks are unmapped when it becomes
// unreachable, if nobody released them before.
func newSlab() *slab {
	s := &slab{}
	runtime.SetFinalizer(s, (*slab).release)
	return s
}

// take returns a zeroed buffer of n bytes with cap == len.
func (s *slab) take(n int) []byte {
	if s.heap {
		return make([]byte, n)
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last])-s.off < n {
		size := max(n, minSlabChunk)
		if last >= 0 {
			size = max(size, 2*len(s.chunks[last]))
		}
		page := os.Getpagesize()
		size = (size + page - 1) / page * page
		c, err := mapChunk(size)
		if err != nil {
			s.heap = true
			return make([]byte, n)
		}
		mappedBytes.Add(int64(size))
		s.chunks = append(s.chunks, c)
		s.off = 0
		last++
	}
	b := s.chunks[last][s.off : s.off+n : s.off+n]
	s.off += n
	return b
}

// release unmaps every chunk. No buffer taken from them may be touched
// after it. Idempotent.
func (s *slab) release() {
	for _, c := range s.chunks {
		if unmapChunk(c) == nil {
			mappedBytes.Add(-int64(len(c)))
		}
	}
	s.chunks, s.off = nil, 0
}
