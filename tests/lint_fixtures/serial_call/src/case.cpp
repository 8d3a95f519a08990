// Fixture: calls into OFAR_SERIAL_ONLY functions from parallel-phase
// code must be flagged, both directly and through an unannotated helper
// (transitive reachability), with explicit and implicit receivers.

struct Net {
  OFAR_SERIAL_ONLY void flush_outboxes();
  void helper();
};

void Net::helper() {
  flush_outboxes();  // expect: serial-call
}

struct Engine {
  OFAR_PARALLEL_PHASE void advance(Net& net);
  OFAR_SERIAL_ONLY void commit(Net& net);
};

void Engine::advance(Net& net) {
  net.flush_outboxes();  // expect: serial-call
  net.helper();
}

void Engine::commit(Net& net) {
  net.flush_outboxes();  // fine: serial caller
}
