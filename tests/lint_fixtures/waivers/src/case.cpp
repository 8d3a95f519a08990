// Fixture: a `// lint: allow(<rule>)` comment on the offending line
// suppresses exactly that rule at that site — other rules and other
// lines still fire.

struct Net {
  OFAR_SERIAL_ONLY void flush_outboxes();
};

struct Engine {
  OFAR_PARALLEL_PHASE void advance(Net& net);
  OFAR_SERIAL_ONLY int total_ = 0;
};

void Engine::advance(Net& net) {
  net.flush_outboxes();  // lint: allow(serial-call)
  total_ = 1;            // lint: allow(serial-call) -- wrong rule: expect: serial-write
  net.flush_outboxes();  // expect: serial-call
}
