// Package closed holds the one error a stopped part of the engine answers
// with. The engine, its log manager, its lock manager and its DORA executor
// each return an error that wraps Err once they are closed or crashed, so
// one errors.Is tells a caller that retrying against them is pointless.
package closed

import "errors"

// Err is the closed classification; the server answers it as
// wire.StatusClosing.
var Err = errors.New("closed")
