#include "workloads/redis.h"

#include <algorithm>

#include "base/logging.h"

namespace hpmp
{

std::vector<std::string>
redisCommands()
{
    return {"PING_INLINE", "PING_BULK", "SET", "GET", "INCR", "LPUSH",
            "RPUSH", "LPOP", "RPOP", "SADD", "HSET", "SPOP",
            "LRANGE_100", "LRANGE_300", "LRANGE_500", "LRANGE_600",
            "MSET"};
}

/**
 * The actual data structures, all resident in simulated memory.
 * Layout: a hash index of (key, value-slot) pairs, a node heap for
 * list/set/hash nodes (allocation order pre-shuffled so long-running
 * heap fragmentation — and thus pointer-chase TLB pressure — is
 * realistic), and per-key list head/tail tables.
 */
struct RedisBench::Store
{
    static constexpr uint64_t kNoNode = UINT64_MAX;

    /**
     * One list/set node. Real Redis quicklist/ziplist nodes plus
     * allocator headers occupy at least a cache line; padding to 64 B
     * makes the pointer chase span realistic amounts of memory.
     */
    struct Node
    {
        uint64_t next;
        uint64_t value;
        uint8_t pad[48];
    };
    static_assert(sizeof(Node) == 64);

    Store(Runner &r, unsigned keyspace, uint64_t seed)
        : netBuf(r, 1024),
          // The command mix inserts up to three distinct key families
          // (plain, set members, hash fields): size the open-addressed
          // index for <= 50% load so probing stays short.
          index(r, 8 * keyspace),
          values(r, 8 * keyspace),
          listHead(r, keyspace),
          listTail(r, keyspace),
          listLen(r, keyspace),
          nodes(r, kHeapNodes),
          connState(r, 16384),
          sockBuf(r, 65536)
    {
        Rng shuffle_rng(seed);
        for (uint64_t i = 0; i < index.size(); ++i) {
            index.init(i, UINT64_MAX);
            values.init(i, kNoNode);
        }
        for (uint64_t i = 0; i < listHead.size(); ++i) {
            listHead.init(i, kNoNode);
            listTail.init(i, kNoNode);
            listLen.init(i, 0);
        }
        // Shuffled free list of heap nodes.
        freeNodes.resize(kHeapNodes);
        for (uint64_t i = 0; i < kHeapNodes; ++i)
            freeNodes[i] = i;
        for (uint64_t i = kHeapNodes - 1; i > 0; --i)
            std::swap(freeNodes[i], freeNodes[shuffle_rng.below(i + 1)]);
    }

    uint64_t
    allocNode()
    {
        fatal_if(freeNodes.empty(), "redis node heap exhausted");
        const uint64_t n = freeNodes.back();
        freeNodes.pop_back();
        return n;
    }

    void freeNode(uint64_t n) { freeNodes.push_back(n); }

    /** Timed hash-index probe; returns the slot for the key. */
    uint64_t
    slotFor(Runner &r, uint64_t key)
    {
        const uint64_t cap = index.size();
        uint64_t h = (key * 0x9e3779b97f4a7c15ULL) % cap;
        for (uint64_t probe = 0; probe < cap; ++probe) {
            const uint64_t stored = index.get(h);
            if (stored == key || stored == UINT64_MAX) {
                if (stored == UINT64_MAX)
                    index.set(h, key);
                return h;
            }
            h = (h + 1) % cap;
            r.compute(3);
        }
        fatal("redis hash index full");
    }

    /**
     * Value objects live as heap nodes (real Redis stores robj/SDS
     * allocations scattered across the heap, not inline in the dict).
     * @return the node holding the key's value, allocating on first
     * use.
     */
    uint64_t
    valueNode(Runner &r, uint64_t slot)
    {
        uint64_t node = values.get(slot);
        if (node == kNoNode) {
            node = allocNode();
            values.set(slot, node);
            Node fresh{};
            fresh.next = kNoNode;
            nodes.set(node, fresh);
            r.compute(40); // allocator path
        }
        return node;
    }

    static constexpr uint64_t kHeapNodes = 1 << 17;

    SimArray<uint64_t> netBuf;    //!< request/reply buffers
    SimArray<uint64_t> index;     //!< open-addressed key slots
    SimArray<uint64_t> values;    //!< per-key value-node handle
    SimArray<uint64_t> listHead;  //!< per-key list head node
    SimArray<uint64_t> listTail;
    SimArray<uint64_t> listLen;
    SimArray<Node> nodes;         //!< the node heap
    SimArray<Node> connState;     //!< per-client connection state
    SimArray<Node> sockBuf;       //!< kernel socket-buffer pool
    std::vector<uint64_t> freeNodes;
};

RedisBench::RedisBench(TeeEnv &env, unsigned keyspace,
                       unsigned value_bytes)
    : env_(env),
      rng_(0x4ed15),
      keyspace_(keyspace),
      valueBytes_(value_bytes)
{
    enclave_ = env_.createEnclave(128_MiB);
    env_.enterEnclave(*enclave_, PrivMode::User);
    model_ = std::make_unique<CoreModel>(env_.makeCoreModel());
    runner_ = std::make_unique<Runner>(*enclave_->kernel, *enclave_->as,
                                       *model_);
    store_ = std::make_unique<Store>(*runner_, keyspace_, 0x5eed);

    // Preload: every key exists; every list has ~120 elements so the
    // LRANGE variants have data to walk.
    Runner &r = *runner_;
    for (unsigned k = 0; k < keyspace_; ++k) {
        const uint64_t slot = store_->slotFor(r, k);
        (void)store_->valueNode(r, slot);
    }
    for (unsigned k = 0; k < keyspace_ / 8; ++k) {
        for (unsigned i = 0; i < 120; ++i)
            pushNode(k, true);
    }
    env_.exitToHost();
}

RedisBench::~RedisBench()
{
    if (enclave_) {
        runner_.reset();
        store_.reset();
        env_.destroyEnclave(std::move(enclave_));
    }
}

void
RedisBench::requestOverhead(Runner &r)
{
    // Network receive, RESP parse, reply serialize: branchy code with
    // a few buffer touches.
    r.compute(1800);
    r.load(store_->netBuf.addrOf(rng_.below(1024)));
    // 50 concurrent clients: each request traverses that connection's
    // state and a handful of kernel socket buffers (sk_buff-style
    // allocations scattered across a pool).
    const uint64_t conn = rng_.below(store_->connState.size());
    auto state = store_->connState.get(conn);
    state.value += 1;
    store_->connState.set(conn, state);
    for (int i = 0; i < 3; ++i) {
        const uint64_t buf = rng_.below(store_->sockBuf.size());
        auto skb = store_->sockBuf.get(buf);
        skb.value ^= rng_.next();
        store_->sockBuf.set(buf, skb);
    }
}

void
RedisBench::execute(Runner &r, const std::string &cmd)
{
    Store &s = *store_;
    const uint64_t key = rng_.below(keyspace_);
    const uint64_t list_key = rng_.below(keyspace_ / 8);

    auto push = [&](bool front) {
        const uint64_t slot = s.slotFor(r, list_key);
        (void)slot;
        pushNode(unsigned(list_key), front);
    };
    auto pop = [&](bool front) {
        const uint64_t head = s.listHead.get(list_key);
        if (head == Store::kNoNode) {
            pushNode(unsigned(list_key), true); // keep lists non-empty
            return;
        }
        if (front) {
            const uint64_t next = s.nodes.get(head).next;
            s.listHead.set(list_key, next);
            if (next == Store::kNoNode)
                s.listTail.set(list_key, Store::kNoNode);
            s.freeNode(head);
        } else {
            // Singly linked: walk to the tail (bounded walk).
            uint64_t prev = Store::kNoNode;
            uint64_t cur = head;
            unsigned steps = 0;
            while (s.nodes.get(cur).next != Store::kNoNode &&
                   steps++ < 160) {
                prev = cur;
                cur = s.nodes.get(cur).next;
            }
            if (prev == Store::kNoNode) {
                s.listHead.set(list_key, Store::kNoNode);
                s.listTail.set(list_key, Store::kNoNode);
            } else {
                auto prev_node = s.nodes.get(prev);
                prev_node.next = Store::kNoNode;
                s.nodes.set(prev, prev_node);
                s.listTail.set(list_key, prev);
            }
            s.freeNode(cur);
        }
        s.listLen.set(list_key,
                      std::max<uint64_t>(1, s.listLen.get(list_key)) - 1);
    };
    auto lrange = [&](unsigned n) {
        uint64_t cur = s.listHead.get(list_key);
        unsigned walked = 0;
        while (cur != Store::kNoNode && walked < n) {
            cur = s.nodes.get(cur).next; // value read shares the line
            ++walked;
            r.compute(6); // reply append per element
        }
        // redis-benchmark walks the full requested range; short lists
        // wrap to other lists to keep the walk length honest. Advance
        // the list cursor even when a list is drained so the loop
        // always terminates.
        uint64_t next_list = list_key;
        while (walked < n) {
            next_list = (next_list + 1) % (keyspace_ / 8);
            if (next_list == list_key)
                break; // every list drained: nothing left to walk
            cur = s.listHead.get(next_list);
            while (cur != Store::kNoNode && walked < n) {
                cur = s.nodes.get(cur).next;
                ++walked;
                r.compute(6);
            }
        }
    };

    auto write_value = [&](uint64_t k) {
        const uint64_t slot = s.slotFor(r, k);
        const uint64_t node = s.valueNode(r, slot);
        auto obj = s.nodes.get(node);
        obj.value = rng_.next() >> (64 - 8 * valueBytes_);
        s.nodes.set(node, obj);
    };
    auto read_value = [&](uint64_t k) {
        const uint64_t slot = s.slotFor(r, k);
        const uint64_t node = s.valueNode(r, slot);
        return s.nodes.get(node).value;
    };

    if (cmd == "PING_INLINE") {
        r.compute(300);
    } else if (cmd == "PING_BULK") {
        r.compute(400);
    } else if (cmd == "SET") {
        write_value(key);
    } else if (cmd == "GET") {
        (void)read_value(key);
    } else if (cmd == "INCR") {
        write_value(key);
    } else if (cmd == "LPUSH") {
        push(true);
    } else if (cmd == "RPUSH") {
        push(false);
    } else if (cmd == "LPOP") {
        pop(true);
    } else if (cmd == "RPOP") {
        pop(false);
    } else if (cmd == "SADD") {
        // Set member: its own key family plus a member node.
        write_value(key ^ 0xabcdef);
    } else if (cmd == "HSET") {
        write_value(key ^ 0x123457);
    } else if (cmd == "SPOP") {
        (void)read_value(key ^ 0xabcdef);
    } else if (cmd == "LRANGE_100") {
        lrange(100);
    } else if (cmd == "LRANGE_300") {
        lrange(300);
    } else if (cmd == "LRANGE_500") {
        lrange(450);
    } else if (cmd == "LRANGE_600") {
        lrange(600);
    } else if (cmd == "MSET") {
        // Ten keys per request.
        for (unsigned i = 0; i < 10; ++i)
            write_value((key + i) % keyspace_);
        r.compute(2000);
    } else {
        fatal("unknown redis command '%s'", cmd.c_str());
    }
}

void
RedisBench::pushNode(unsigned list_key, bool front)
{
    Store &s = *store_;
    Runner &r = *runner_;
    const uint64_t node = s.allocNode();
    Store::Node fresh{};
    fresh.value = rng_.next();
    if (front) {
        const uint64_t head = s.listHead.get(list_key);
        fresh.next = head;
        s.nodes.set(node, fresh);
        s.listHead.set(list_key, node);
        if (head == Store::kNoNode)
            s.listTail.set(list_key, node);
    } else {
        fresh.next = Store::kNoNode;
        s.nodes.set(node, fresh);
        const uint64_t tail = s.listTail.get(list_key);
        if (tail == Store::kNoNode) {
            s.listHead.set(list_key, node);
        } else {
            auto tail_node = s.nodes.get(tail);
            tail_node.next = node;
            s.nodes.set(tail, tail_node);
        }
        s.listTail.set(list_key, node);
    }
    s.listLen.set(list_key, s.listLen.get(list_key) + 1);
    r.compute(12);
}

double
RedisBench::run(const std::string &command, unsigned requests)
{
    env_.enterEnclave(*enclave_, PrivMode::User);
    Runner &r = *runner_;

    // Warm up with a slice of requests, then measure.
    for (unsigned i = 0; i < requests / 10; ++i) {
        requestOverhead(r);
        execute(r, command);
    }
    model_->reset();
    {
        // The measured requests are timed on the helper thread.
        const Machine::TimingStream stream = r.timingStream();
        for (unsigned i = 0; i < requests; ++i) {
            requestOverhead(r);
            execute(r, command);
        }
    }
    const double seconds = model_->seconds();
    env_.exitToHost();
    return requests / seconds;
}

} // namespace hpmp
