package fleet

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoadHistory feeds any bytes to the controller as its history file
// — a file a crashed daemon leaves torn and an operator may edit. The
// contract: never panic; a torn or corrupt line is skipped and the
// records on either side of it survive; and every record that is
// accepted survives persist → load → persist byte-identically, so a
// history never drifts by being carried across restarts.
func FuzzLoadHistory(f *testing.F) {
	const (
		first = `{"id":1,"version":"v1","state":"Active","source_sha256":"aa","nodes":[{"name":"alpha","url":"http://a","status":"Active","attempts":3}]}`
		last  = `{"id":2,"version":"v2","state":"RolledBack","source_sha256":"bb","error":"fleet: activate failed","kind":"canary","nodes":[]}`
	)
	f.Add([]byte(first + "\n" + last + "\n"))
	f.Add([]byte(`{"id":3,"version":"v3","state":"Failed","nodes":null,"compat_override":true,"compat_warnings":["w"],"signature_diff":["+ send network"]}`))
	f.Add([]byte("null\n[]\n{}\n\n   \n{\"id\":-4}\n{\"id\":1e99}\n"))
	f.Add([]byte("{\"id\":5,\"version\":\"\xff<&> \"}"))

	// One directory for the whole run (t.TempDir per input would be most
	// of the cost of an input); fresh names every file of it.
	dir := f.TempDir()
	fresh := func(t *testing.T, data []byte) string {
		file, err := os.CreateTemp(dir, "history-*.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Remove(file.Name()) })
		if _, err := file.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		return file.Name()
	}
	// persisted is the history file a controller holding c's records
	// leaves behind.
	persisted := func(t *testing.T, c *Controller) []byte {
		out := New(Config{HistoryPath: fresh(t, nil)})
		for _, d := range c.deployments {
			out.persist(d)
		}
		data, err := os.ReadFile(out.historyPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sandwich := bytes.Join([][]byte{[]byte(first), data, []byte(last), nil}, []byte("\n"))
		c := New(Config{HistoryPath: fresh(t, sandwich)})
		views := c.Deployments()
		if n := len(views); n < 2 || views[0].Version != "v1" || views[n-1].Version != "v2" || len(views[0].Nodes) != 1 {
			t.Fatalf("records around the fuzzed lines did not survive: %+v", views)
		}
		for _, v := range views {
			if v.ID <= 0 || v.ID >= c.nextID {
				t.Fatalf("accepted record id %d, next id %d", v.ID, c.nextID)
			}
		}

		once := persisted(t, c)
		twice := persisted(t, New(Config{HistoryPath: fresh(t, once)}))
		if !bytes.Equal(once, twice) {
			t.Fatalf("history changed by being carried across a restart:\n%s\n---\n%s", once, twice)
		}
	})
}
