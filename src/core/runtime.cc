#include "core/runtime.hh"

#include <chrono>
#include <cstdio>

namespace upr
{

const char *
versionName(Version v)
{
    switch (v) {
      case Version::Volatile: return "Volatile";
      case Version::Sw:       return "SW";
      case Version::Hw:       return "HW";
      case Version::Explicit: return "Explicit";
    }
    return "?";
}

const char *
execTierName(ExecTier t)
{
    switch (t) {
      case ExecTier::Model:  return "model";
      case ExecTier::Native: return "native";
    }
    return "?";
}

Runtime::Runtime() : Runtime(Config{}) {}

Runtime::Runtime(Config config)
    : config_(config),
      space_(),
      heap_(space_),
      pools_(space_, config.placement, config.seed),
      machine_(config.machine, space_, pools_),
      reuse_(config.machine.reuseBufferEntries),
      stats_("upr")
{
    upr_assert(isPow2(config_.machine.reuseBufferEntries));
    if (config_.version == Version::Hw ||
        config_.version == Version::Explicit) {
        machine_.setMmuFrontModel(config_.mmuFront);
    }
    if (config_.persistHeap && config_.version != Version::Volatile) {
        // libvmmalloc: the whole heap lives in one persistent pool.
        vmPool_ = pools_.createPool("__vmmalloc",
                                    config_.persistHeapPoolSize);
    }
    stats_.registerCounter("dynamicChecks", dynChecks_,
                           "software determineX/determineY checks");
    stats_.registerCounter("absToRel", absToRel_,
                           "virtual-to-relative conversions");
    stats_.registerCounter("relToAbs", relToAbs_,
                           "relative-to-virtual conversions");
    stats_.registerCounter("storePOps", storePOps_,
                           "pointer stores through storeP semantics");
}

Runtime::~Runtime()
{
    // An undo transaction still open rolls back as undoTxn_ dies. As
    // in abortTxn(), detach the hook first: the rollback's own writes
    // must not be logged.
    if (inTxn())
        pools_.pool(txnPool_).backing().setWriteHook(nullptr);
}

// ----------------------------------------------------------------------
// Allocation facade
// ----------------------------------------------------------------------

SimAddr
Runtime::mallocBytes(Bytes n)
{
    machine_.tick(config_.machine.allocatorLatency);
    if (vmPool_ != 0) {
        // libvmmalloc mode: malloc transparently allocates on NVM
        // and hands back an ordinary (virtual) address — the calling
        // code cannot tell, which is the point.
        return pools_.pmalloc(vmPool_, n);
    }
    return heap_.allocate(n);
}

void
Runtime::freeBytes(SimAddr va)
{
    machine_.tick(config_.machine.allocatorLatency);
    if (Layout::isNvm(va)) {
        pools_.pfree(va);
        return;
    }
    heap_.deallocate(va);
}

PtrBits
Runtime::pmallocBits(PoolId pool, Bytes n)
{
    machine_.tick(config_.machine.allocatorLatency);
    if (config_.version == Version::Volatile) {
        // The Volatile reference version has no NVM at all: persistent
        // allocations degrade to ordinary heap allocations.
        return PtrRepr::fromVa(heap_.allocate(n));
    }
    const SimAddr va = pools_.pmalloc(pool, n);
    auto [id, off] = pools_.va2ra(va);
    return PtrRepr::makeRelative(id, off);
}

void
Runtime::pfreeBits(PtrBits p)
{
    machine_.tick(config_.machine.allocatorLatency);
    if (config_.version == Version::Volatile) {
        heap_.deallocate(PtrRepr::toVa(p));
        return;
    }
    if (PtrRepr::isRelative(p)) {
        pools_.allocator(PtrRepr::poolOf(p)).free(PtrRepr::offsetOf(p));
        return;
    }
    // A persistent object referenced through its virtual address.
    pools_.pfree(PtrRepr::toVa(p));
}

PoolId
Runtime::createPool(const std::string &name, Bytes size,
                    EngineKind engine)
{
    return pools_.createPool(name, size, engine);
}

// ----------------------------------------------------------------------
// Persistent transactions (Sec VI)
// ----------------------------------------------------------------------

void
Runtime::beginTxn(PoolId pool)
{
    if (config_.version == Version::Volatile)
        return; // no NVM, nothing to make crash-consistent
    if (inTxn()) {
        throw Fault(FaultKind::BadUsage,
                    "a transaction is already active");
    }
    if (!pools_.isAttached(pool)) {
        throw Fault(FaultKind::PoolDetached,
                    "beginTxn on a detached pool");
    }
    Pool &p = pools_.pool(pool);

    if (p.engineKind() == EngineKind::Redo) {
        // Redo path: no per-store log latency — stores are staged in
        // DRAM by the Backing itself and cost nothing extra until
        // commit journals them. The hook only harvests elision
        // hints: ranges a proof marks fresh skip the journal at
        // flush time.
        if (redoBatch_ && txnPool_ != pool) {
            redoBatch_->flush(); // drain the old pool's batch first
            redoBatch_.reset();
        }
        if (!redoBatch_)
            redoBatch_ = std::make_unique<RedoBatch>(p);
        redoBatch_->begin();
        txnPool_ = pool;
        p.backing().setWriteHook(&Runtime::redoWriteHook, this);
        return;
    }
    if (redoBatch_) {
        redoBatch_->flush(); // leaving redo: make its batch durable
        redoBatch_.reset();
    }
    undoTxn_.begin(p);
    txnPool_ = pool;

    // Log at the backing layer: *every* write into the pool — data,
    // pointer, and allocator/header metadata alike — records its
    // pre-image, so abort restores a fully consistent pool.
    p.backing().setWriteHook(&Runtime::undoWriteHook, this);
}

void
Runtime::undoWriteHook(void *ctx, Bytes off, Bytes n)
{
    auto *rt = static_cast<Runtime *>(ctx);
    // The guard breaks the recursion on the log's own writes. It is
    // lowered on every exit, a throwing append (log full, simulated
    // crash) included, or every later transaction would go unlogged.
    if (rt->txnLogging_)
        return;
    rt->txnLogging_ = true;
    struct Lower
    {
        bool &flag;
        ~Lower() { flag = false; }
    } lower{rt->txnLogging_};
    if (rt->txnLogHint_ == TxnLogHint::Log) {
        rt->machine_.tick(rt->config_.machine.txnLogLatency);
        rt->undoTxn_.recordWrite(static_cast<PoolOffset>(off), n);
    } else {
        // Proven elidable: no pre-image, no fence, no log latency —
        // the range is only remembered for the commit flush.
        rt->undoTxn_.recordElidedWrite(static_cast<PoolOffset>(off), n);
    }
}

void
Runtime::redoWriteHook(void *ctx, Bytes off, Bytes n)
{
    auto *rt = static_cast<Runtime *>(ctx);
    if (rt->txnLogHint_ == TxnLogHint::ElideFresh && rt->redoBatch_)
        rt->redoBatch_->noteElided(off, n);
}

void
Runtime::commitTxn()
{
    if (config_.version == Version::Volatile)
        return;
    if (redoBatch_ && redoBatch_->txnOpen()) {
        pools_.pool(txnPool_).backing().setWriteHook(nullptr);
        const auto t0 = std::chrono::steady_clock::now();
        redoBatch_->commit();
        if (groupCommitSize_ <= 1 ||
            redoBatch_->pendingTxns() >= groupCommitSize_) {
            redoBatch_->flush();
        }
        txnCommitNs_.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        return;
    }
    upr_assert_msg(!undoTxn_.closed(), "commit without beginTxn");
    pools_.pool(txnPool_).backing().setWriteHook(nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    undoTxn_.commit();
    txnCommitNs_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
}

void
Runtime::abortTxn()
{
    if (config_.version == Version::Volatile)
        return;
    if (redoBatch_ && redoBatch_->txnOpen()) {
        pools_.pool(txnPool_).backing().setWriteHook(nullptr);
        redoBatch_->abort();
        return;
    }
    upr_assert_msg(!undoTxn_.closed(), "abort without beginTxn");
    pools_.pool(txnPool_).backing().setWriteHook(nullptr);
    undoTxn_.abort();
}

void
Runtime::flushGroup()
{
    if (config_.version == Version::Volatile)
        return;
    if (redoBatch_)
        redoBatch_->flush();
}

// ----------------------------------------------------------------------
// Checks and conversions
// ----------------------------------------------------------------------

bool
Runtime::swCheck(std::uint64_t site, bool outcome)
{
    const Cycles t0 = machine_.now();
    ++dynChecks_;
    machine_.tick(config_.machine.swCheckAluLatency);
    machine_.branch(site, outcome);
    // Simulated-cycle cost of this check (ALU + branch, including a
    // possible misprediction penalty) — deterministic, so the bench
    // goldens can assert on the histogram.
    checkCycles_.record(machine_.now() - t0);
    return outcome;
}

void
Runtime::swLookupBranches(std::uint64_t key, std::uint64_t site)
{
    // The software conversion walks a pool table (hash probe or
    // binary search); its branches turn on address bits and are
    // data-dependent, so they predict poorly across many objects.
    for (unsigned i = 0; i < config_.machine.swConvertBranches; ++i)
        machine_.branch(site + i, bit(key, 4 + 5 * i));
}




PtrBits
Runtime::va2ra(SimAddr va, std::uint64_t site)
{
    (void)site;
    ++absToRel_;
    switch (config_.version) {
      case Version::Volatile:
        upr_panic("va2ra under the Volatile version");
      case Version::Sw: {
        machine_.tick(config_.machine.swConvertLatency);
        swLookupBranches(va, site * 16 + 13);
        auto [id, off] = pools_.va2ra(va);
        return PtrRepr::makeRelative(id, off);
      }
      case Version::Hw:
      case Version::Explicit: {
        if (config_.version == Version::Explicit)
            machine_.tick(config_.machine.explicitApiLatency);
        const Va2RaResult r = machine_.va2raHw(va);
        machine_.tick(r.latency);
        return PtrRepr::makeRelative(r.id, r.offset);
      }
    }
    upr_panic("unreachable");
}

// ----------------------------------------------------------------------
// Dereference path
// ----------------------------------------------------------------------



void
Runtime::storePtr(SimAddr loc_va, PtrBits value, std::uint64_t site)
{
    if (config_.version == Version::Volatile) {
        storeData<PtrBits>(loc_va, value);
        return;
    }

    const Cycles assign_t0 = machine_.now();
    const bool dest_nvm =
        PtrRepr::determineX(loc_va) == LocKind::Nvm;
    const PtrForm form = PtrRepr::determineY(value);
    ++storePOps_;

    if (config_.version == Version::Explicit) {
        // Explicit programs store object IDs directly; no conversion
        // is ever needed (nor any check: the types are distinct).
        // (Pre-image already logged above when in a transaction.)
        machine_.memAccess(loc_va, true, Machine::AccessKind::StoreD);
        space_.write<PtrBits>(loc_va, value);
        ptrAssignCycles_.record(machine_.now() - assign_t0);
        return;
    }

    if (config_.version == Version::Sw) {
        // pointerAssignment (Fig 3) in software: two checks plus a
        // conversion when formats disagree with the destination.
        const bool is_rel =
            swCheck(site * 4 + 1, form == PtrForm::Relative);
        swCheck(site * 4 + 2, dest_nvm);
        PtrBits out = value;
        if (!PtrRepr::isNull(value)) {
            if (dest_nvm && !is_rel) {
                if (form == PtrForm::VirtualNvm) {
                    out = va2ra(PtrRepr::toVa(value), site);
                } else if (config_.strictStoreP) {
                    throw Fault(FaultKind::StorePFault,
                                "DRAM pointer stored into NVM");
                }
            } else if (!dest_nvm && is_rel) {
                out = PtrRepr::fromVa(ra2va(value, site));
            }
        }
        machine_.memAccess(loc_va, true, Machine::AccessKind::StoreD);
        space_.write<PtrBits>(loc_va, out);
        ptrAssignCycles_.record(machine_.now() - assign_t0);
        return;
    }

    // HW version: the storeP instruction (Table I). Rs may need
    // translation through VALB (va2ra) or POLB (ra2va); Rd here is
    // already a virtual address, so its translation latency is zero.
    Cycles rs_latency = 0;
    PtrBits out = value;
    if (!PtrRepr::isNull(value)) {
        if (dest_nvm && form == PtrForm::VirtualNvm) {
            const Va2RaResult r =
                machine_.va2raHw(PtrRepr::toVa(value));
            ++absToRel_;
            rs_latency = r.latency;
            out = PtrRepr::makeRelative(r.id, r.offset);
        } else if (dest_nvm && form == PtrForm::VirtualDram &&
                   config_.strictStoreP) {
            throw Fault(FaultKind::StorePFault,
                        "DRAM pointer stored into NVM");
        } else if (dest_nvm && form == PtrForm::Relative &&
                   reuseLookup(value) != kNullAddr) {
            // The program holds this pointer as a converted virtual
            // address in a register (paper Fig 7: pointer values pass
            // through stack temporaries in VA form); the compiled
            // storeP stores the VA operand and converts it back
            // through the VALB. The stored bits are the same
            // canonical relative value either way.
            const Va2RaResult r =
                machine_.va2raHw(reuseLookup(value));
            ++absToRel_;
            rs_latency = r.latency;
            upr_assert(PtrRepr::makeRelative(r.id, r.offset) == value);
        } else if (!dest_nvm && form == PtrForm::Relative) {
            const XlatResult r = machine_.rdXlatHw(
                PtrRepr::poolOf(value), PtrRepr::offsetOf(value));
            ++relToAbs_;
            rs_latency = r.latency;
            out = PtrRepr::fromVa(r.value);
        }
    }
    machine_.issueStoreP(rs_latency, 0);
    if (rs_latency > 0) {
        const SimAddr line =
            roundDown(loc_va, config_.machine.cacheLineBytes);
        pendingStoreP_.put(line, machine_.now() + rs_latency);
    }
    machine_.memAccess(loc_va, true, Machine::AccessKind::StoreP);
    space_.write<PtrBits>(loc_va, out);
    ptrAssignCycles_.record(machine_.now() - assign_t0);
}

void
Runtime::loadBytes(SimAddr va, void *dst, Bytes n)
{
    const Bytes line = config_.machine.cacheLineBytes;
    for (SimAddr a = roundDown(va, line); a < va + n; a += line)
        machine_.memAccess(a, false, Machine::AccessKind::Load);
    space_.readBytes(va, dst, n);
}

void
Runtime::storeBytes(SimAddr va, const void *src, Bytes n)
{
    const Bytes line = config_.machine.cacheLineBytes;
    for (SimAddr a = roundDown(va, line); a < va + n; a += line)
        machine_.memAccess(a, true, Machine::AccessKind::StoreD);
    space_.writeBytes(va, src, n);
}

// ----------------------------------------------------------------------
// Value-level Fig 4 operations
// ----------------------------------------------------------------------

bool
Runtime::ptrEq(PtrBits a, PtrBits b, std::uint64_t site)
{
    // The comparison result feeds a conditional branch in the
    // program (all versions): run it through the predictor so the
    // Fig 13 baseline is a real branch stream, not zero.
    // p op NULL: direct comparison, no conversion (Fig 4).
    if (PtrRepr::isNull(a) || PtrRepr::isNull(b)) {
        const bool r = a == b;
        machine_.branch(site * 8 + 1, r);
        return r;
    }
    if (config_.version == Version::Volatile ||
        config_.version == Version::Explicit) {
        // Volatile: plain compare. Explicit: object IDs compare
        // directly (the typed API guarantees both sides are IDs).
        const bool r = a == b;
        machine_.branch(site * 8 + 1, r);
        return r;
    }
    const SimAddr va_a = normalizeCmp(a, site * 8 + 1);
    const SimAddr vb = normalizeCmp(b, site * 8 + 2);
    const bool r = va_a == vb;
    machine_.branch(site * 8 + 3, r);
    return r;
}

bool
Runtime::ptrLt(PtrBits a, PtrBits b, std::uint64_t site)
{
    if (config_.version == Version::Volatile) {
        const bool r = a < b;
        machine_.branch(site * 8 + 3, r);
        return r;
    }
    const SimAddr va_a = normalizeCmp(a, site * 8 + 3);
    const SimAddr vb = normalizeCmp(b, site * 8 + 4);
    const bool r = va_a < vb;
    machine_.branch(site * 8 + 5, r);
    return r;
}



PtrBits
Runtime::ptrAddBytes(PtrBits p, std::int64_t delta, std::uint64_t site)
{
    if (config_.version == Version::Sw)
        swCheck(site * 8 + 5, PtrRepr::isRelative(p));
    if (PtrRepr::isRelative(p)) {
        // Relative pointers carry a 32-bit offset; arithmetic that
        // leaves [0, 2^32) cannot name anything in the pool. Raise a
        // catchable fault rather than dying on the representation
        // assert inside PtrRepr::addBytes.
        const std::int64_t off =
            static_cast<std::int64_t>(PtrRepr::offsetOf(p)) + delta;
        if (off < 0 || off > 0xffffffffLL) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "pointer arithmetic wraps the 32-bit offset "
                          "(offset %llu, delta %lld)",
                          (unsigned long long)PtrRepr::offsetOf(p),
                          (long long)delta);
            throw Fault(FaultKind::OffsetOutOfPool, buf);
        }
    }
    machine_.tick(1);
    return PtrRepr::addBytes(p, delta);
}

std::int64_t
Runtime::ptrDiffBytes(PtrBits a, PtrBits b, std::uint64_t site)
{
    // pxr - pxr' within one pool subtracts offsets directly (Fig 4).
    if (PtrRepr::isRelative(a) && PtrRepr::isRelative(b) &&
        PtrRepr::poolOf(a) == PtrRepr::poolOf(b)) {
        if (config_.version == Version::Sw) {
            swCheck(site * 8 + 6, true);
            swCheck(site * 8 + 7, true);
        }
        machine_.tick(1);
        return static_cast<std::int64_t>(PtrRepr::offsetOf(a)) -
               static_cast<std::int64_t>(PtrRepr::offsetOf(b));
    }
    const SimAddr va_a = normalizeCmp(a, site * 8 + 6);
    const SimAddr vb = normalizeCmp(b, site * 8 + 7);
    machine_.tick(1);
    return static_cast<std::int64_t>(va_a) -
           static_cast<std::int64_t>(vb);
}

std::uint64_t
Runtime::ptrToInt(PtrBits p, std::uint64_t site)
{
    // (I)pxv passes through; (I)pxr converts to the virtual address.
    if (config_.version == Version::Sw)
        swCheck(site * 8 + 1, PtrRepr::isRelative(p));
    if (PtrRepr::isRelative(p) && config_.version != Version::Volatile)
        return ra2va(p, site);
    return p;
}

SimAddr
Runtime::normalizeCmp(PtrBits p, std::uint64_t site)
{
    if (config_.version == Version::Sw) {
        const bool rel = swCheck(site, PtrRepr::isRelative(p));
        return rel ? ra2va(p, site) : PtrRepr::toVa(p);
    }
    if (PtrRepr::isRelative(p))
        return ra2va(p, site);
    return PtrRepr::toVa(p);
}

void
Runtime::resetCounters()
{
    stats_.resetAll();
    // The histograms cover the same measured region as the counters:
    // resetting one without the other would break the
    // count-equals-counter invariants the obs tests assert.
    checkCycles_.reset();
    ptrAssignCycles_.reset();
    txnCommitNs_.reset();
}

} // namespace upr
