package interp

import (
	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
)

// PrepareMethodForTest exposes the preparation pass (with the
// superinstruction fusion pass enabled) to the external test package
// (the fuzz target drives it with adversarial instruction streams; the
// oracle tests reach it through normal execution).
func PrepareMethodForTest(m *classfile.Method) *bytecode.PCode { return prepareMethod(m, true) }

// SnapshotAccount exposes the capture-time account a snapshot seeds its
// clones with (the migration-accounting test checks it is exact).
func SnapshotAccount(s *Snapshot) core.Account { return s.account }
