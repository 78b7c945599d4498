// Self-test fixture: every lint rule must fire exactly on the lines
// marked `expect(<rule>)` and nowhere else. `medchain_lint --self-test`
// cross-checks the reported set against these markers, so a rule that
// silently stops matching (or starts over-matching) fails CI.
//
// This file is never compiled — it only needs to look like C++.

#include <cstdint>

void determinism_violations() {
  std::random_device rd;                  // expect(determinism-random)
  int r = rand();                         // expect(determinism-random)
  std::uint64_t t = time(nullptr);        // expect(determinism-time)
  auto now = std::chrono::system_clock::now();  // expect(determinism-time)
  (void)rd; (void)r; (void)t; (void)now;
}

void concurrency_violations() {
  std::mutex m;                           // expect(concurrency-primitives)
  std::thread worker([] {});              // expect(concurrency-primitives)
  worker.join();
}

void assert_violation(int x) {
  assert(x > 0);                          // expect(raw-assert)
}

void vm_bypass_violation() {
  auto r = vm::execute(code, storage, ctx, host);   // expect(vm-direct-execute)
  auto q = mc::vm::execute(code, storage, ctx, host);  // expect(vm-direct-execute)
  // The decoded-program overload skips admission just the same.
  auto p = vm::execute(dc.code->program, storage, ctx, host);  // expect(vm-direct-execute)
  auto d = vm::execute(vm::decode_program(code), storage, ctx, host);  // expect(vm-direct-execute)
  (void)r; (void)q; (void)p; (void)d;
  store.call(id, ctx, host);  // admission path: must not fire
}

void footprint_bypass_violations() {
  store.deploy(deploy_tx, 7);               // expect(footprint-bypass)
  contract_store_->deploy(tx, height);      // expect(footprint-bypass)
  auto id = node_store.deploy(std::move(tx), h);  // expect(footprint-bypass)
  deployer.deploy(fleet);       // unrelated deploy(): must not fire
  store.deployments();          // wrong member name: must not fire
  (void)id;
}

void state_bypass_violations() {
  state.apply(tx, proposer, params);        // expect(state-direct-apply)
  src_state.apply(tx, Address{}, params);   // expect(state-direct-apply)
  world_state_->apply(tx, proposer, params);  // expect(state-direct-apply)
  overlay.apply(tx, proposer, params);      // expect(state-direct-apply)
  standardizer.apply(core.x);   // unrelated apply(): must not fire
  estate.applying(tx);          // wrong member name: must not fire
}

void suppressed_lines() {
  // Justification: fixture proves the escape hatch suppresses a match.
  int r = rand();  // medchain-lint: allow(determinism-random)
  // medchain-lint: allow(concurrency-primitives) — annotation-above form
  std::mutex guarded;
  (void)r; (void)guarded;
}

void non_violations() {
  // Comments and strings must never fire: rand() time() std::mutex
  const char* text = "std::random_device in a string literal";
  static_assert(sizeof(text) > 0, "static_assert is not assert");
  (void)text;
}
