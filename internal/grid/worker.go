package grid

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ServeWorker implements the subprocess side of the fan-out protocol: it
// reads one JSON-encoded Spec per line from r, executes each via RunSpec
// (panic-isolated), and streams one JSON-encoded Result per line to w, in
// request order. It returns nil on EOF — the coordinator closing the
// worker's stdin is the normal shutdown — and an error only when the
// protocol stream itself is broken.
//
// The coordinator speaks this protocol to `experiments -worker`
// subprocesses; because specs are self-describing, the command can just as
// well be `ssh host experiments -worker`, letting several hosts run the
// cells of one drain. w must carry nothing but protocol frames: worker
// diagnostics belong on stderr.
func ServeWorker(r io.Reader, w io.Writer) error {
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	for {
		var s Spec
		if err := dec.Decode(&s); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("grid worker: decoding spec: %w", err)
		}
		if err := enc.Encode(RunSpec(s)); err != nil {
			return fmt.Errorf("grid worker: encoding result: %w", err)
		}
	}
}
