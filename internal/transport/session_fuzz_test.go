package transport

import (
	"bytes"
	"testing"
)

// fuzzResumeKey is the fixed key FuzzResumeToken checks tokens under; the
// seed corpus in testdata/fuzz/FuzzResumeToken was signed with it.
var fuzzResumeKey = []byte("fedzkt resume-token fuzz key 32B")

// FuzzResumeToken: the resume-token check never panics, whatever id a
// client claims — negative and huge ones included — and accepts a token
// exactly when it is the key's signature of that id, which no other id
// accepts.
func FuzzResumeToken(f *testing.F) {
	f.Fuzz(func(t *testing.T, id int64, token []byte) {
		ok := checkResumeToken(fuzzResumeKey, int(id), token)
		if want := bytes.Equal(token, resumeToken(fuzzResumeKey, int(id))); ok != want {
			t.Fatalf("id %d, token %x: check = %v, want %v", id, token, ok, want)
		}
		if ok && checkResumeToken(fuzzResumeKey, int(id^1), token) {
			t.Fatalf("device %d's token also resumes device %d", id, id^1)
		}
	})
}
