//! Property tests for the KV service, in the style of `prop_http.rs` /
//! `prop_stm.rs`: protocol round trips survive arbitrary chunking, and the
//! sharded store (both backends, with TTLs) is model-checked against a
//! plain `HashMap` reference under a deterministic `simos` schedule.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::time::SECS;
use eveth_kv::client::{Framed, ReplyFramer};
use eveth_kv::protocol::{CommandParser, Reply, ReplyParser, Shape, Verb, VERBS};
use eveth_kv::store::{
    Backend, CasOutcome, ConcatOutcome, CounterResult, Entry, ShardedStore, StoreConfig,
};
use eveth_simos::SimRuntime;
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = String> {
    "[a-e]{1,3}"
}

/// One abstract store operation with explicit virtual time.
#[derive(Debug, Clone)]
enum Op {
    Set {
        key: String,
        value: Vec<u8>,
        ttl_secs: u64,
    },
    Add {
        key: String,
        value: Vec<u8>,
        ttl_secs: u64,
    },
    Replace {
        key: String,
        value: Vec<u8>,
        ttl_secs: u64,
    },
    /// `gets`-then-`cas`: uses the key's current stamp when `stale` is
    /// false (must store), a mismatching one when true (must reject).
    Cas {
        key: String,
        value: Vec<u8>,
        stale: bool,
    },
    Append {
        key: String,
        value: Vec<u8>,
    },
    Prepend {
        key: String,
        value: Vec<u8>,
    },
    Touch {
        key: String,
        ttl_secs: u64,
    },
    Get {
        key: String,
    },
    Gets {
        key: String,
    },
    Delete {
        key: String,
    },
    Incr {
        key: String,
        delta: u64,
    },
    Purge,
    Advance {
        secs: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let val = || proptest::collection::vec(any::<u8>(), 0..32);
    prop_oneof![
        (arb_key(), val(), 0u64..4).prop_map(|(key, value, ttl_secs)| Op::Set {
            key,
            value,
            ttl_secs
        }),
        (arb_key(), val(), 0u64..4).prop_map(|(key, value, ttl_secs)| Op::Add {
            key,
            value,
            ttl_secs
        }),
        (arb_key(), val(), 0u64..4).prop_map(|(key, value, ttl_secs)| Op::Replace {
            key,
            value,
            ttl_secs
        }),
        (arb_key(), val(), any::<bool>()).prop_map(|(key, value, stale)| Op::Cas {
            key,
            value,
            stale
        }),
        (arb_key(), val()).prop_map(|(key, value)| Op::Append { key, value }),
        (arb_key(), val()).prop_map(|(key, value)| Op::Prepend { key, value }),
        (arb_key(), 0u64..4).prop_map(|(key, ttl_secs)| Op::Touch { key, ttl_secs }),
        arb_key().prop_map(|key| Op::Get { key }),
        arb_key().prop_map(|key| Op::Gets { key }),
        arb_key().prop_map(|key| Op::Delete { key }),
        (arb_key(), 0u64..100).prop_map(|(key, delta)| Op::Incr { key, delta }),
        Just(Op::Purge),
        (1u64..3).prop_map(|secs| Op::Advance { secs }),
    ]
}

/// A modelled live entry: value, deadline, version stamp.
#[derive(Debug, Clone)]
struct Slot {
    value: Vec<u8>,
    deadline: Option<u64>,
    version: u64,
}

/// The reference model, driven by the same virtual clock the simulated
/// store sees. It mirrors the store's stamping rule exactly: one version
/// is drawn per mutating operation call (set/add/replace/cas/incr),
/// applied only when the write commits.
struct Model {
    map: HashMap<String, Slot>,
    next_version: u64,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            map: HashMap::new(),
            next_version: 1,
        }
    }
}

impl Model {
    fn stamp(&mut self) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    fn expire(&mut self, key: &str, now: u64) -> bool {
        if let Some(Slot {
            deadline: Some(d), ..
        }) = self.map.get(key)
        {
            if *d <= now {
                self.map.remove(key);
                return true;
            }
        }
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary op sequences against both backends match the reference
    /// model exactly, including TTL behaviour, when run on the simulated
    /// runtime's deterministic schedule.
    #[test]
    fn store_matches_hashmap_reference(
        ops in proptest::collection::vec(arb_op(), 1..60),
        shards in 1usize..5,
        stm in any::<bool>(),
    ) {
        let backend = if stm { Backend::Stm } else { Backend::Mutex };
        let sim = SimRuntime::new_default();
        let store = ShardedStore::new(StoreConfig {
            shards,
            backend,
            ..Default::default()
        });
        let mut model = Model::default();

        for op in ops {
            let now = sim.now();
            match op {
                Op::Set { key, value, ttl_secs } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let entry = Entry {
                        value: Bytes::from(value.clone()),
                        flags: 7,
                        expires_at: ShardedStore::deadline(now, ttl_secs),
                        version: 0,
                    };
                    sim.block_on(st.set(k, entry)).unwrap();
                    let version = model.stamp();
                    model.map.insert(key, Slot {
                        value,
                        deadline: ShardedStore::deadline(now, ttl_secs),
                        version,
                    });
                }
                Op::Add { key, value, ttl_secs } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let entry = Entry {
                        value: Bytes::from(value.clone()),
                        flags: 7,
                        expires_at: ShardedStore::deadline(now, ttl_secs),
                        version: 0,
                    };
                    let stored = sim.block_on(st.add(k, entry, now)).unwrap();
                    let version = model.stamp();
                    model.expire(&key, now);
                    let absent = !model.map.contains_key(&key);
                    prop_assert_eq!(stored, absent, "add mismatch for {}", key);
                    if absent {
                        model.map.insert(key, Slot {
                            value,
                            deadline: ShardedStore::deadline(now, ttl_secs),
                            version,
                        });
                    }
                }
                Op::Replace { key, value, ttl_secs } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let entry = Entry {
                        value: Bytes::from(value.clone()),
                        flags: 7,
                        expires_at: ShardedStore::deadline(now, ttl_secs),
                        version: 0,
                    };
                    let stored = sim.block_on(st.replace(k, entry, now)).unwrap();
                    let version = model.stamp();
                    model.expire(&key, now);
                    let present = model.map.contains_key(&key);
                    prop_assert_eq!(stored, present, "replace mismatch for {}", key);
                    if present {
                        model.map.insert(key, Slot {
                            value,
                            deadline: ShardedStore::deadline(now, ttl_secs),
                            version,
                        });
                    }
                }
                Op::Cas { key, value, stale } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    // The stamp a well-behaved client would have seen via
                    // `gets` (bogus 0 when the key is dead — then NotFound
                    // is the only correct answer); +1 models a concurrent
                    // writer having intervened.
                    let live_version = {
                        let peek = model.map.get(&key).filter(|s| {
                            s.deadline.is_none_or(|d| d > now)
                        });
                        peek.map(|s| s.version).unwrap_or(0)
                    };
                    let expected = if stale { live_version.wrapping_add(1) } else { live_version };
                    let entry = Entry {
                        value: Bytes::from(value.clone()),
                        flags: 7,
                        expires_at: None,
                        version: 0,
                    };
                    let outcome = sim.block_on(st.cas(k, entry, expected, now)).unwrap();
                    let version = model.stamp();
                    model.expire(&key, now);
                    match model.map.get_mut(&key) {
                        None => prop_assert_eq!(outcome, CasOutcome::NotFound, "cas on dead {}", key),
                        Some(slot) if slot.version == expected => {
                            prop_assert_eq!(outcome, CasOutcome::Stored, "cas match for {}", key);
                            *slot = Slot { value, deadline: None, version };
                        }
                        Some(_) => {
                            prop_assert_eq!(outcome, CasOutcome::Exists, "stale cas for {}", key);
                        }
                    }
                }
                op @ (Op::Append { .. } | Op::Prepend { .. }) => {
                    let (key, value, is_prepend) = match op {
                        Op::Append { key, value } => (key, value, false),
                        Op::Prepend { key, value } => (key, value, true),
                        _ => unreachable!(),
                    };
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let outcome = sim
                        .block_on(st.concat(k, Bytes::from(value.clone()), is_prepend, now))
                        .unwrap();
                    let version = model.stamp();
                    model.expire(&key, now);
                    match model.map.get_mut(&key) {
                        None => prop_assert_eq!(
                            outcome,
                            ConcatOutcome::Missing,
                            "concat on dead {}",
                            key
                        ),
                        Some(slot) => {
                            // Test values are ≤ 32 bytes against a 1 MiB
                            // cap, so TooLarge is unreachable here.
                            prop_assert_eq!(outcome, ConcatOutcome::Stored, "concat {}", key);
                            if is_prepend {
                                let mut joined = value;
                                joined.extend_from_slice(&slot.value);
                                slot.value = joined;
                            } else {
                                slot.value.extend_from_slice(&value);
                            }
                            // Concatenation keeps flags and deadline but
                            // re-stamps the entry.
                            slot.version = version;
                        }
                    }
                }
                Op::Touch { key, ttl_secs } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let deadline = ShardedStore::deadline(now, ttl_secs);
                    let touched = sim.block_on(st.touch(k, deadline, now)).unwrap();
                    let version = model.stamp();
                    model.expire(&key, now);
                    match model.map.get_mut(&key) {
                        None => prop_assert!(!touched, "touch on dead {}", key),
                        Some(slot) => {
                            prop_assert!(touched, "touch on live {}", key);
                            slot.deadline = deadline;
                            slot.version = version;
                        }
                    }
                }
                Op::Get { key } | Op::Gets { key } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let got = sim.block_on(st.get(k, now)).unwrap();
                    model.expire(&key, now);
                    let want = model.map.get(&key);
                    match (got, want) {
                        (None, None) => {}
                        (Some(e), Some(slot)) => {
                            prop_assert_eq!(e.value.to_vec(), slot.value.clone(), "value mismatch for {}", key);
                            prop_assert_eq!(e.flags, 7);
                            prop_assert_eq!(e.version, slot.version, "version stamp mismatch for {}", key);
                        }
                        (got, want) => {
                            panic!("presence mismatch for {key}: store={got:?} model={want:?}");
                        }
                    }
                }
                Op::Delete { key } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let removed = sim.block_on(st.delete(k, now)).unwrap();
                    let was_expired = model.expire(&key, now);
                    let model_removed = model.map.remove(&key).is_some() && !was_expired;
                    prop_assert_eq!(removed, model_removed, "delete mismatch for {}", key);
                }
                Op::Incr { key, delta } => {
                    let st = Arc::clone(&store);
                    let k = Bytes::from(key.clone().into_bytes());
                    let res = sim.block_on(st.counter_op(k, delta, false, now)).unwrap();
                    let version = model.stamp();
                    model.expire(&key, now);
                    match (res, model.map.get_mut(&key)) {
                        (CounterResult::NotFound, None) => {}
                        (CounterResult::Ok(v), Some(slot)) => {
                            let cur: u64 = std::str::from_utf8(&slot.value).unwrap().parse().unwrap();
                            let next = cur.wrapping_add(delta);
                            prop_assert_eq!(v, next, "incr result for {}", key);
                            slot.value = next.to_string().into_bytes();
                            slot.version = version;
                        }
                        (CounterResult::NotNumeric, Some(slot)) => {
                            let numeric = std::str::from_utf8(&slot.value)
                                .ok()
                                .and_then(|s| s.parse::<u64>().ok())
                                .is_some();
                            prop_assert!(!numeric, "store said NotNumeric but model has a number");
                        }
                        (res, want) => {
                            panic!("incr mismatch for {key}: store={res:?} model={want:?}");
                        }
                    }
                }
                Op::Purge => {
                    for idx in 0..store.shard_count() {
                        let st = Arc::clone(&store);
                        sim.block_on(st.purge_shard(idx, now)).unwrap();
                    }
                    let keys: Vec<String> = model.map.keys().cloned().collect();
                    for k in keys {
                        model.expire(&k, now);
                    }
                }
                Op::Advance { secs } => {
                    sim.block_on(eveth_core::syscall::sys_sleep(secs * SECS)).unwrap();
                }
            }
        }
        // Final reconciliation: purge everything at one fixed `now` and
        // expire the model at the same instant; live counts must agree.
        let now = sim.now();
        for idx in 0..store.shard_count() {
            let st = Arc::clone(&store);
            sim.block_on(st.purge_shard(idx, now)).unwrap();
        }
        let keys: Vec<String> = model.map.keys().cloned().collect();
        for k in keys {
            model.expire(&k, now);
        }
        prop_assert_eq!(store.len_now(), model.map.len(), "final live-entry count");
    }

    /// Every verb of the table, with `noreply` where the verb takes it:
    /// the canonical line built from the table row parses, re-encodes to
    /// the same bytes, and parses back to the same command no matter how
    /// the bytes are sliced into recv-sized chunks.
    #[test]
    fn command_roundtrip_any_chunking(
        verb in 0..VERBS.len(),
        keys in proptest::collection::vec("[a-z0-9]{1,16}", 1..4),
        value in proptest::collection::vec(any::<u8>(), 0..512),
        numbers in (any::<u32>(), 0u64..100_000, any::<u64>()),
        noreply in any::<bool>(),
        cuts in proptest::collection::vec(1usize..64, 0..16),
    ) {
        let row = &VERBS[verb];
        let (flags, exptime, number) = numbers;
        let noreply = noreply && row.noreply;
        let mut line = row.name.to_string();
        match row.shape {
            Shape::Keys => line += &format!(" {}", keys.join(" ")),
            Shape::Storage => {
                line += &format!(" {} {flags} {exptime} {}", keys[0], value.len());
                if row.verb == Verb::Cas {
                    line += &format!(" {number}");
                }
            }
            Shape::KeyNumber => line += &format!(" {} {number}", keys[0]),
            Shape::Key => line += &format!(" {}", keys[0]),
            Shape::Bare => {}
        }
        if noreply {
            line += " noreply";
        }
        let mut raw = line.into_bytes();
        raw.extend_from_slice(b"\r\n");
        if row.shape == Shape::Storage {
            raw.extend_from_slice(&value);
            raw.extend_from_slice(b"\r\n");
        }

        let cmd = CommandParser::new()
            .feed(&raw)
            .expect("valid command")
            .expect("command completed");
        prop_assert_eq!(cmd.verb(), row.verb);
        prop_assert_eq!(cmd.noreply(), noreply);
        prop_assert_eq!(cmd.is_write(), row.write);
        prop_assert_eq!(
            cmd.key().map(|k| k.to_vec()),
            (row.shape != Shape::Bare).then(|| keys[0].clone().into_bytes())
        );
        let mut wire = Vec::new();
        cmd.encode_into(&mut wire);
        prop_assert_eq!(&wire, &raw);

        let mut parser = CommandParser::new();
        let mut parsed = None;
        let mut pos = 0;
        let mut cut_iter = cuts.into_iter();
        while pos < wire.len() {
            let step = cut_iter.next().unwrap_or(wire.len()).min(wire.len() - pos);
            if let Some(c) = parser.feed(&wire[pos..pos + step]).expect("valid command") {
                parsed = Some(c);
            }
            pos += step;
        }
        prop_assert_eq!(parsed.expect("command completed"), cmd);
        prop_assert_eq!(parser.buffered(), 0);
    }

    /// Replies encode → parse back identically through the client parser
    /// under arbitrary chunking, and the framer groups the same cut
    /// stream into the same commands as one feed of the whole buffer,
    /// forwarding every byte it was fed.
    #[test]
    fn reply_roundtrip_any_chunking(
        key in "[a-z]{1,8}",
        data in proptest::collection::vec(any::<u8>(), 0..256),
        flags in any::<u32>(),
        cas in proptest::option::of(any::<u64>()),
        n in any::<u64>(),
        cuts in proptest::collection::vec(1usize..32, 0..12),
    ) {
        let value = |key: &[u8], data: Vec<u8>, cas| Reply::Value {
            key: Bytes::copy_from_slice(key),
            flags,
            data: Bytes::from(data),
            cas,
        };
        let replies = vec![
            value(key.as_bytes(), data.clone(), cas),
            Reply::End,
            Reply::Stored,
            Reply::Number(n),
            Reply::NotFound,
            Reply::Version("1.6.0-sim"),
            Reply::ClientError("bad delta"),
            Reply::Stat("get_hits".into(), "42".into()),
            Reply::Stat("version".into(), "1.6.0 sim".into()),
            Reply::End,
            value(b"a", data, None),
            value(key.as_bytes(), b"second".to_vec(), cas),
            Reply::End,
        ];
        let mut wire = Vec::new();
        for r in &replies {
            r.encode_into(&mut wire);
        }
        let chunks: Vec<&[u8]> = {
            let mut chunks = Vec::new();
            let (mut pos, mut cut_iter) = (0, cuts.into_iter());
            while pos < wire.len() {
                let step = cut_iter.next().unwrap_or(wire.len()).min(wire.len() - pos);
                chunks.push(&wire[pos..pos + step]);
                pos += step;
            }
            chunks
        };

        let mut parser = ReplyParser::new();
        let mut got = Vec::new();
        for chunk in &chunks {
            if let Some(r) = parser.feed(chunk).expect("valid reply") {
                got.push(r);
                while let Some(r) = parser.feed(b"").expect("valid reply") {
                    got.push(r);
                }
            }
        }
        // The parser keeps the kind of a text-carrying reply, not its text.
        let kinds: Vec<Reply> = replies
            .iter()
            .map(|r| match r {
                Reply::Version(_) => Reply::Version(""),
                Reply::ClientError(_) => Reply::ClientError(""),
                other => other.clone(),
            })
            .collect();
        prop_assert_eq!(got, kinds);
        prop_assert_eq!(parser.buffered(), 0);

        let mut framer = ReplyFramer::new();
        let mut cut = Vec::new();
        for chunk in &chunks {
            framer.feed(Bytes::copy_from_slice(chunk)).expect("valid reply");
            cut.extend(std::iter::from_fn(|| framer.pop()));
        }
        let forwarded: Vec<u8> = cut.iter().flat_map(|f| f.bytes.concat()).collect();
        prop_assert_eq!(&forwarded, &wire);
        let mut whole = ReplyFramer::new();
        whole.feed(Bytes::from(wire.clone())).expect("valid reply");
        let whole: Vec<_> = std::iter::from_fn(|| whole.pop()).collect();
        let shape = |framed: &[Framed]| -> Vec<(Reply, usize)> {
            framed.iter().map(|f| (f.closing.clone(), f.values)).collect()
        };
        prop_assert_eq!(shape(&cut), shape(&whole));
        prop_assert_eq!(cut.len(), 8);
    }
}
