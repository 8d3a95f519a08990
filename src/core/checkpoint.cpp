#include "core/checkpoint.hpp"

#include <cstdio>

#include "common/ckpt_stream.hpp"
#include "core/spec.hpp"
#include "sim/network.hpp"

namespace ofar {

namespace {

// "OFARCKP1" / "OFARCKND" as little-endian u64s: a human can spot the
// header and trailer in a hex dump.
constexpr u64 kMagic = 0x31504B435241464FULL;
constexpr u64 kTrailer = 0x444E4B435241464FULL;

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
}

// Wheel events as checkpoints store them: addressed by dense channel id, in
// the byte layout the kernel's events had before they carried their
// destinations. Saving converts each event to this form and loading
// converts back, so the file format is unchanged.
struct CkptPhit {
  ChannelId ch;
  PacketId pkt;
  VcId vc;
  u8 head;
  u8 tail;
  u8 pad;
};
static_assert(sizeof(CkptPhit) == 12);
struct CkptCredit {
  ChannelId ch;
  VcId vc;
  u8 pad[3];
};
static_assert(sizeof(CkptCredit) == 8);

// Worklists are stored as id lists followed by a "sorted" flag; a bitset
// always lists its members in ascending order.
void write_worklist(CkptWriter& w, const Worklist& list) {
  w.put_u64(list.size());
  list.for_each([&w](u32 id) { w.put_u32(id); });
  w.put_bool(true);
}

bool read_worklist(CkptReader& r, Worklist& list) {
  const u64 n = r.get_u64();
  if (!r.ok() || n > list.end() - list.begin()) return false;
  list.reset(list.begin(), list.end());
  for (u64 i = 0; i < n; ++i) {
    const u32 id = r.get_u32();
    if (!r.ok() || !list.in_range(id)) return false;
    list.insert(id);
  }
  r.get_bool();  // "sorted": iteration order is the id order regardless
  return r.ok();
}

}  // namespace

void CheckpointIO::write_fifo(CkptWriter& w, const VcFifo& f) {
  w.put_u32(f.head_);
  w.put_u32(f.tail_);
  w.put_u32(f.stored_);
  const u32 count = f.tail_ - f.head_;  // wrap-safe, bounded by ring size
  for (u32 i = 0; i < count; ++i)
    w.put_pod_span(&f.entries_[(f.head_ + i) & f.mask_], 1);
}

bool CheckpointIO::read_fifo(CkptReader& r, VcFifo& f) {
  f.head_ = r.get_u32();
  f.tail_ = r.get_u32();
  f.stored_ = r.get_u32();
  const u32 count = f.tail_ - f.head_;
  if (!r.ok() || count > f.mask_ + 1) {
    r.fail();
    return false;
  }
  for (u32 i = 0; i < count; ++i)
    r.get_pod_span(&f.entries_[(f.head_ + i) & f.mask_], 1);
  return r.ok();
}

// The u64 after the bucket width is a reserved slot, always 0, kept so the
// byte format of existing checkpoints stays valid.
void CheckpointIO::write_series(CkptWriter& w, const TimeSeries& ts) {
  w.put_u64(ts.start_);
  w.put_u32(ts.bucket_width_);
  w.put_u64(0);
  w.put_u64(ts.buckets_.size());
  w.put_pod_span(ts.buckets_.data(), ts.buckets_.size());
}

// Only the bucket contents are restored: the saved shape must equal the
// shape of the series the driver installed, so a corrupt width or count is
// a load error instead of a divide by zero or a huge allocation.
bool CheckpointIO::read_series(CkptReader& r, TimeSeries& ts) {
  const Cycle start = r.get_u64();
  const u32 width = r.get_u32();
  const u64 reserved = r.get_u64();
  const u64 n = r.get_u64();
  if (!r.ok() || start != ts.start_ || width != ts.bucket_width_ ||
      reserved != 0 || n != ts.buckets_.size()) {
    r.fail();
    return false;
  }
  r.get_pod_span(ts.buckets_.data(), ts.buckets_.size());
  return r.ok();
}

void CheckpointIO::write_stats(CkptWriter& w, const Stats& s) {
  w.put_u64(s.window_start_);
  w.put_u64(s.generated_packets_);
  w.put_u64(s.generated_phits_);
  w.put_u64(s.injected_packets_);
  w.put_u64(s.delivered_packets_);
  w.put_u64(s.delivered_phits_);
  w.put_u64(s.local_misroutes_);
  w.put_u64(s.global_misroutes_);
  w.put_u64(s.ring_entries_);
  w.put_u64(s.ring_exits_);
  w.put_u64(s.ring_packets_);
  w.put_u64(s.ring_reentries_);
  w.put_u64(s.stalled_packets_);
  w.put_u64(s.worst_stall_);
  w.put_u64(s.max_hops_);
  w.put_f64(s.hops_sum_);
  w.put_pod_span(&s.latency_, 1);
  w.put_u64(s.histogram_.total_);
  w.put_u64(s.histogram_.overflow_);
  w.put_pod_span(s.histogram_.buckets_.data(), s.histogram_.buckets_.size());
  w.put_u64(s.by_tag_.size());
  w.put_pod_span(s.by_tag_.data(), s.by_tag_.size());
  w.put_bool(s.series_ != nullptr);
  if (s.series_) write_series(w, *s.series_);
}

bool CheckpointIO::read_stats(CkptReader& r, Stats& s) {
  s.window_start_ = r.get_u64();
  s.generated_packets_ = r.get_u64();
  s.generated_phits_ = r.get_u64();
  s.injected_packets_ = r.get_u64();
  s.delivered_packets_ = r.get_u64();
  s.delivered_phits_ = r.get_u64();
  s.local_misroutes_ = r.get_u64();
  s.global_misroutes_ = r.get_u64();
  s.ring_entries_ = r.get_u64();
  s.ring_exits_ = r.get_u64();
  s.ring_packets_ = r.get_u64();
  s.ring_reentries_ = r.get_u64();
  s.stalled_packets_ = r.get_u64();
  s.worst_stall_ = r.get_u64();
  s.max_hops_ = r.get_u64();
  s.hops_sum_ = r.get_f64();
  r.get_pod_span(&s.latency_, 1);
  s.histogram_.total_ = r.get_u64();
  s.histogram_.overflow_ = r.get_u64();
  r.get_pod_span(s.histogram_.buckets_.data(),
                 s.histogram_.buckets_.size());
  const u64 tags = r.get_u64();
  if (!r.ok() || tags > (u64{1} << 20)) {
    r.fail();
    return false;
  }
  s.by_tag_.assign(static_cast<std::size_t>(tags), LatencyAccum{});
  r.get_pod_span(s.by_tag_.data(), s.by_tag_.size());
  // A restored run keeps the series the driver installed (same protocol,
  // same parameters) and overwrites its contents with the saved buckets.
  if (r.get_bool()) {
    if (s.series_ == nullptr) {
      r.fail();
      return false;
    }
    if (!read_series(r, *s.series_)) return false;
  }
  return r.ok();
}

void CheckpointIO::write_state(CkptWriter& w, const Network& net) {
  w.put_u64(net.now_);
  w.put_rng(net.rng_);
  w.put_u64(net.injected_total_);
  w.put_u64(net.delivered_total_);
  w.put_u64(net.pending_total_);

  // ---- packet pool, verbatim (ids and future id reuse order) ----
  const PacketPool& pool = net.pool_;
  w.put_u64(pool.slots_.size());
  w.put_pod_span(pool.slots_.data(), pool.slots_.size());
  for (std::size_t i = 0; i < pool.live_bits_.size(); ++i)
    w.put_u8(pool.live_bits_[i] ? 1 : 0);
  w.put_u64(pool.free_list_.size());
  w.put_pod_span(pool.free_list_.data(), pool.free_list_.size());
  w.put_u64(pool.live_);

  // ---- per-node offer queues (sparse: almost all are empty) ----
  u64 non_empty = 0;
  for (const auto& q : net.pending_)
    if (!q.empty()) ++non_empty;
  w.put_u64(non_empty);
  for (NodeId n = 0; n < net.pending_.size(); ++n) {
    const auto items = net.pending_[n].items();
    if (items.size() == 0) continue;
    w.put_u32(n);
    w.put_u64(items.size());
    w.put_pod_span(items.data(), items.size());
  }

  // ---- built routers (unbuilt ones are all-empty shells by invariant) ----
  w.put_u64(net.built_router_count());
  for (RouterId rid = 0; rid < net.routers_.size(); ++rid) {
    if (net.built_[rid] == 0) continue;
    const Router& r = net.routers_[rid];
    w.put_u32(rid);
    for (const InputPort& in : r.inputs) {
      for (const VcFifo& f : in.vcs) write_fifo(w, f);
      w.put_pod_span(in.head_busy.data(), in.head_busy.size());
    }
    for (const OutputPort& out : r.outputs) {
      w.put_pod_span(out.credits.data(), out.credits.size());
      w.put_u32(out.active);
      w.put_u8(out.active_vc);
      w.put_u16(out.src_port);
      w.put_u8(out.src_vc);
      w.put_u32(out.phits_left);
      w.put_u16(out.active_size);
    }
    for (const LrsArbiter& a : r.input_arb)
      w.put_pod_span(a.last_grant_.data(), a.last_grant_.size());
    for (const LrsArbiter& a : r.output_arb)
      w.put_pod_span(a.last_grant_.data(), a.last_grant_.size());
    w.put_u32(r.buffered_packets);
    w.put_u32(r.buffered_phits);
    w.put_u32(r.routable_heads);
    w.put_u32(r.active_transfers);
    w.put_bool(r.throttled);
    w.put_u64(r.active_out_mask);
    w.put_pod_span(r.input_mask.data(), r.input_mask.size());
  }

  // ---- activity worklists (stale idle entries included: they drain
  // through the next prune pass exactly as in the original run) ----
  w.put_u32(static_cast<u32>(net.shards_.size()));
  for (const auto& sh : net.shards_) write_worklist(w, sh.active);
  write_worklist(w, net.pending_nodes_);

  // ---- event wheels, slot by slot (slot index = cycle % wheel size,
  // preserved because now_ is saved); a slot holds every shard's events
  // for it, in shard order, each stored by channel (CkptPhit/CkptCredit) ----
  w.put_u32(net.wheel_size_);
  for (u32 slot = 0; slot < net.wheel_size_; ++slot) {
    u64 n = 0;
    for (const auto& sh : net.shards_) n += sh.phit_wheel[slot].size();
    w.put_u64(n);
    for (const auto& sh : net.shards_) {
      for (const Network::PhitEvent& e : sh.phit_wheel[slot]) {
        const CkptPhit c{net.phit_channel(e),
                         e.pkt,
                         e.vc,
                         static_cast<u8>((e.flags & Network::kPhitHead) != 0),
                         static_cast<u8>((e.flags & Network::kPhitTail) != 0),
                         0};
        w.put_pod_span(&c, 1);
      }
    }
  }
  for (u32 slot = 0; slot < net.wheel_size_; ++slot) {
    u64 n = 0;
    for (const auto& sh : net.shards_) n += sh.credit_wheel[slot].size();
    w.put_u64(n);
    for (const auto& sh : net.shards_) {
      for (const Network::CreditEvent& e : sh.credit_wheel[slot]) {
        const CkptCredit c{net.credit_channel(e), e.vc, {0, 0, 0}};
        w.put_pod_span(&c, 1);
      }
    }
  }

  // ---- lifetime link loads (sparse at scale) ----
  u64 loaded = 0;
  for (const u64 v : net.channel_phits_)
    if (v != 0) ++loaded;
  w.put_u64(loaded);
  for (std::size_t c = 0; c < net.channel_phits_.size(); ++c) {
    if (net.channel_phits_[c] == 0) continue;
    w.put_u64(c);
    w.put_u64(net.channel_phits_[c]);
  }

  write_stats(w, net.stats_);
  net.policy_->save_state(w);
  w.put_bool(net.traffic_ != nullptr);
  if (net.traffic_) net.traffic_->save_state(w);
}

bool CheckpointIO::read_state(CkptReader& r, Network& net,
                              std::string* error) {
  net.now_ = r.get_u64();
  r.get_rng(net.rng_);
  net.injected_total_ = r.get_u64();
  net.delivered_total_ = r.get_u64();
  net.pending_total_ = r.get_u64();

  // ---- packet pool ----
  PacketPool& pool = net.pool_;
  const u64 pool_slots = r.get_u64();
  if (!r.ok() || pool_slots > (u64{1} << 32)) {
    set_error(error, "corrupt packet pool header");
    return false;
  }
  pool.slots_.assign(static_cast<std::size_t>(pool_slots), Packet{});
  r.get_pod_span(pool.slots_.data(), pool.slots_.size());
  pool.live_bits_.assign(pool.slots_.size(), false);
  for (std::size_t i = 0; i < pool.live_bits_.size(); ++i)
    pool.live_bits_[i] = r.get_u8() != 0;
  const u64 free_count = r.get_u64();
  if (!r.ok() || free_count > pool_slots) {
    set_error(error, "corrupt packet free list");
    return false;
  }
  pool.free_list_.assign(static_cast<std::size_t>(free_count), 0);
  r.get_pod_span(pool.free_list_.data(), pool.free_list_.size());
  pool.live_ = static_cast<std::size_t>(r.get_u64());

  // ---- offer queues ----
  const u64 queues = r.get_u64();
  if (!r.ok() || queues > net.pending_.size()) {
    set_error(error, "corrupt offer queue header");
    return false;
  }
  for (u64 q = 0; q < queues; ++q) {
    const u32 node = r.get_u32();
    const u64 count = r.get_u64();
    if (!r.ok() || node >= net.pending_.size() ||
        count > (u64{1} << 40)) {
      set_error(error, "corrupt offer queue");
      return false;
    }
    auto& queue = net.pending_[node];
    for (u64 i = 0; i < count; ++i) {
      Network::Offer o{};
      r.get_pod_span(&o, 1);
      queue.push_back(o);
    }
  }

  // ---- routers: build exactly the saved set, then overwrite state ----
  const u64 built = r.get_u64();
  if (!r.ok() || built > net.routers_.size()) {
    set_error(error, "corrupt router header");
    return false;
  }
  for (u64 i = 0; i < built; ++i) {
    const u32 rid = r.get_u32();
    if (!r.ok() || rid >= net.routers_.size()) {
      set_error(error, "corrupt router id");
      return false;
    }
    net.ensure_router_built(rid);
    Router& router = net.routers_[rid];
    for (InputPort& in : router.inputs) {
      for (VcFifo& f : in.vcs)
        if (!read_fifo(r, f)) {
          set_error(error, "corrupt FIFO state");
          return false;
        }
      r.get_pod_span(in.head_busy.data(), in.head_busy.size());
    }
    for (OutputPort& out : router.outputs) {
      r.get_pod_span(out.credits.data(), out.credits.size());
      out.active = r.get_u32();
      out.active_vc = r.get_u8();
      out.src_port = r.get_u16();
      out.src_vc = r.get_u8();
      out.phits_left = r.get_u32();
      out.active_size = r.get_u16();
    }
    for (LrsArbiter& a : router.input_arb)
      r.get_pod_span(a.last_grant_.data(), a.last_grant_.size());
    for (LrsArbiter& a : router.output_arb)
      r.get_pod_span(a.last_grant_.data(), a.last_grant_.size());
    router.buffered_packets = r.get_u32();
    router.buffered_phits = r.get_u32();
    router.routable_heads = r.get_u32();
    router.active_transfers = r.get_u32();
    router.throttled = r.get_bool();
    router.active_out_mask = r.get_u64();
    r.get_pod_span(router.input_mask.data(), router.input_mask.size());
  }

  // ---- worklists ----
  const u32 shard_count = r.get_u32();
  if (!r.ok() || shard_count != net.shards_.size()) {
    set_error(error, "shard count mismatch");
    return false;
  }
  // A router id outside its shard's range is corrupt: the shard could not
  // own it.
  for (auto& sh : net.shards_) {
    if (!read_worklist(r, sh.active)) {
      set_error(error, "corrupt shard worklist");
      return false;
    }
  }
  if (!read_worklist(r, net.pending_nodes_)) {
    set_error(error, "corrupt node worklist");
    return false;
  }

  // ---- event wheels ----
  const u32 wheel = r.get_u32();
  if (!r.ok() || wheel != net.wheel_size_) {
    set_error(error, "wheel size mismatch");
    return false;
  }
  // Every restored event goes to shard 0's wheels: delivery scans all
  // shards' wheels, and the saved order keeps each shard's deliveries in
  // generation order.
  for (Network::ShardState& sh : net.shards_) {
    for (auto& slot : sh.phit_wheel) slot.clear();
    for (auto& slot : sh.credit_wheel) slot.clear();
  }
  // Channel ids are resolved back to destinations; an id that names no
  // wired channel is corrupt.
  const u32 ports = net.ports_per_router_;
  for (auto& slot : net.shards_[0].phit_wheel) {
    const u64 n = r.get_u64();
    if (!r.ok() || n > (u64{1} << 40)) {
      set_error(error, "corrupt phit wheel");
      return false;
    }
    for (u64 i = 0; i < n; ++i) {
      CkptPhit c{};
      r.get_pod_span(&c, 1);
      if (!r.ok() || !net.channel_wired(c.ch)) {
        set_error(error, "corrupt phit wheel");
        return false;
      }
      const Channel ch = net.channel(c.ch);
      const bool eject = ch.is_ejection();
      slot.push_back({eject ? ch.src_router : ch.dst_router, c.pkt,
                      eject ? ch.src_port : ch.dst_port, c.vc,
                      static_cast<u8>((c.head ? Network::kPhitHead : 0) |
                                      (c.tail ? Network::kPhitTail : 0) |
                                      (eject ? Network::kPhitEject : 0))});
    }
  }
  for (auto& slot : net.shards_[0].credit_wheel) {
    const u64 n = r.get_u64();
    if (!r.ok() || n > (u64{1} << 40)) {
      set_error(error, "corrupt credit wheel");
      return false;
    }
    for (u64 i = 0; i < n; ++i) {
      CkptCredit c{};
      r.get_pod_span(&c, 1);
      if (!r.ok() || !net.channel_wired(c.ch)) {
        set_error(error, "corrupt credit wheel");
        return false;
      }
      slot.push_back({static_cast<RouterId>(c.ch / ports),
                      static_cast<PortId>(c.ch % ports), c.vc});
    }
  }

  // ---- link loads ----
  const u64 loaded = r.get_u64();
  if (!r.ok() || loaded > net.channel_phits_.size()) {
    set_error(error, "corrupt link loads");
    return false;
  }
  for (u64 i = 0; i < loaded; ++i) {
    const u64 c = r.get_u64();
    const u64 v = r.get_u64();
    if (!r.ok() || c >= net.channel_phits_.size()) {
      set_error(error, "corrupt link load entry");
      return false;
    }
    net.channel_phits_[c] = v;
  }

  if (!read_stats(r, net.stats_)) {
    set_error(error, "corrupt stats");
    return false;
  }
  net.policy_->load_state(r);
  const bool has_traffic = r.get_bool();
  if (has_traffic) {
    if (net.traffic_ == nullptr) {
      set_error(error, "checkpoint has traffic state but none installed");
      return false;
    }
    net.traffic_->load_state(r);
  }
  if (!r.ok()) {
    set_error(error, "truncated checkpoint");
    return false;
  }
  return true;
}

bool CheckpointIO::save(const Network& net, const std::string& path,
                        std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, "cannot open checkpoint tmp file");
    return false;
  }
  CkptWriter w(f);
  w.put_u64(kMagic);
  w.put_str(config_signature(net.config()));
  write_state(w, net);
  w.put_u64(kTrailer);
  const bool ok = w.ok() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    set_error(error, "checkpoint write failed");
    return false;
  }
  return true;
}

bool CheckpointIO::restore(Network& net, const std::string& path,
                           std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, "no checkpoint file");
    return false;
  }
  CkptReader r(f);
  bool ok = false;
  if (r.get_u64() != kMagic) {
    set_error(error, "bad checkpoint magic");
  } else if (r.get_str() != config_signature(net.config())) {
    set_error(error, "checkpoint config signature mismatch");
  } else if (net.now_ != 0 || !net.drained()) {
    set_error(error, "restore target is not a fresh network");
  } else if (read_state(r, net, error)) {
    if (r.get_u64() == kTrailer && r.ok()) {
      ok = true;
    } else {
      set_error(error, "truncated checkpoint");
    }
  }
  std::fclose(f);
  // A failed restore can leave `net` partially written; callers must treat
  // it as unusable and rebuild (the drivers construct a fresh Network).
  return ok;
}

}  // namespace ofar
