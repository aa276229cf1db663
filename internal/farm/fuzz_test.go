package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/harness"
)

// decodeFrame runs one frame through the conn reader the farm uses on
// both ends of a session.
func decodeFrame(data []byte) (message, error) {
	c := &conn{r: bufio.NewReader(bytes.NewReader(data)), maxLine: maxLineBytes}
	return c.recv()
}

// FuzzFrameDecode feeds arbitrary bytes to the frame decoder. It must
// never panic, and any message it accepts must re-encode to a frame that
// decodes to the same value.
func FuzzFrameDecode(f *testing.F) {
	cfg := harness.Quick()
	res := sampleResult()
	for _, m := range []message{
		{Type: msgHello, Version: testVersion, Capacity: 2},
		{Type: msgHelloAck, Config: &cfg, WorkerID: 3, HeartbeatMillis: 1000},
		{Type: msgReject, Reason: "version mismatch"},
		{Type: msgLease, ID: 7, Cell: &res.Cell},
		{Type: msgResult, ID: 7, Result: &res},
		{Type: msgError, ID: 7, Reason: "boom"},
		{Type: msgDrain},
		{Type: msgHeartbeat},
	} {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(data, '\n'))
	}
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"type":"result","result":{"Windows":{"interval":0}}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeFrame(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted message %+v does not re-encode: %v", m, err)
		}
		again, err := decodeFrame(append(enc, '\n'))
		if err != nil {
			t.Fatalf("re-encoded frame %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("frame round trip changed the message:\n%+v\n%+v", m, again)
		}
	})
}

// FuzzFileCacheGet writes arbitrary bytes as a cache entry. Get must never
// panic, and must either miss or return a result that a Put then Get
// hands back unchanged.
func FuzzFileCacheGet(f *testing.F) {
	const key = "cfg|cell"
	seed, err := NewFileCache(f.TempDir(), testVersion)
	if err != nil {
		f.Fatal(err)
	}
	seed.Put(key, sampleResult())
	valid, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{}"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, err := NewFileCache(dir, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fc.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := fc.Get(key)
		if !ok {
			return
		}
		fc.Put(key, got)
		again, ok := fc.Get(key)
		if !ok {
			t.Fatalf("re-put result %+v missed", got)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("Put then Get changed the result:\n%+v\n%+v", got, again)
		}
	})
}
