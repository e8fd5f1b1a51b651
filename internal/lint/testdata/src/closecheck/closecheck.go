// Package closecheck is the golden fixture for the closecheck
// analyzer: Engine stands in for the repo's resource-owning types
// (engine.Engine, engine.Compactor, snapshot.PagedIndex).
package closecheck

import "errors"

// Engine owns a resource its Close releases.
type Engine struct{ closed bool }

// NewEngine is a tracked constructor: New*-named, declared in the
// type's own package.
func NewEngine() *Engine { return &Engine{} }

// NewEngineErr is the fallible constructor shape.
func NewEngineErr(fail bool) (*Engine, error) {
	if fail {
		return nil, errors.New("closecheck: bad config")
	}
	return &Engine{}, nil
}

// Close releases the resource.
func (e *Engine) Close() { e.closed = true }

// Search stands in for any use of the live value.
func (e *Engine) Search() int { return 0 }

func leaked() int {
	e := NewEngine() // want "never Closed in leaked"
	return e.Search()
}

func discarded() {
	NewEngine() // want "constructed and discarded"
}

func blanked() {
	_ = NewEngine() // want "assigned to _"
}

// closed is the sanctioned shape: construct, defer Close, passes.
func closedProperly() int {
	e := NewEngine()
	defer e.Close()
	return e.Search()
}

// handedOff transfers ownership to the caller by returning the value:
// passes.
func handedOff() *Engine {
	e := NewEngine()
	return e
}

// errExpected asserts the constructor fails; the discarded value never
// owned anything, passes.
func errExpected() error {
	_, err := NewEngineErr(true)
	return err
}
