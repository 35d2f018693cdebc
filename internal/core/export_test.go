package core

// FreshSnapshot returns a copy of sn whose lazily computed analyses (the
// disjointness check) have not run yet, so tests outside the package can
// measure a first Disjoint call.
func FreshSnapshot(sn *Snapshot) *Snapshot {
	return &Snapshot{store: sn.store, schema: sn.schema, pcs: sn.pcs, ids: sn.ids, epoch: sn.epoch, nextID: sn.nextID}
}
