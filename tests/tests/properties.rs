//! Property-based tests of core invariants.

use bytes::{Bytes, BytesMut};
use glider_core::namespace::{Namespace, NodePath};
use glider_core::proto::codec::{from_bytes, to_bytes};
use glider_core::proto::frame::{
    decode_frame, encode_frame, encode_frame_header_tagged, Frame, LEGACY_STREAM,
};
use glider_core::proto::message::{Request, RequestBody, Response, ResponseBody};
use glider_core::proto::types::{
    ActionSpec, BlockId, NodeId, NodeKind, PeerTier, ServerId, ServerKind, StorageClass, StreamDir,
    StreamId,
};
use glider_core::storage::BlockStore;
use glider_core::util::size::ByteSize;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Codec: encode/decode is the identity; decode never panics on garbage.
// ---------------------------------------------------------------------------

fn arb_node_kind() -> impl Strategy<Value = NodeKind> {
    prop_oneof![
        Just(NodeKind::File),
        Just(NodeKind::Directory),
        Just(NodeKind::KeyValue),
        Just(NodeKind::Table),
        Just(NodeKind::Bag),
        Just(NodeKind::Action),
    ]
}

fn arb_action_spec() -> impl Strategy<Value = ActionSpec> {
    ("[a-z]{1,12}", any::<bool>(), "[a-z0-9=;/]{0,40}")
        .prop_map(|(name, il, params)| ActionSpec::new(name, il).with_params(params))
}

fn arb_request_body() -> impl Strategy<Value = RequestBody> {
    prop_oneof![
        prop_oneof![Just(PeerTier::Compute), Just(PeerTier::Storage)]
            .prop_map(|tier| RequestBody::Hello { tier }),
        (
            "(/[a-z0-9]{1,8}){1,4}",
            arb_node_kind(),
            proptest::option::of(arb_action_spec())
        )
            .prop_map(|(path, kind, action)| RequestBody::CreateNode {
                path,
                kind,
                storage_class: None,
                action,
            }),
        "(/[a-z0-9]{1,8}){1,4}".prop_map(|path| RequestBody::LookupNode { path }),
        "(/[a-z0-9]{1,8}){1,4}".prop_map(|path| RequestBody::DeleteNode { path }),
        (any::<u64>(), any::<u32>()).prop_map(|(n, count)| RequestBody::AddBlocks {
            node_id: NodeId(n),
            count,
        }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>().prop_map(BlockId), any::<u64>()), 0..8)
        )
            .prop_map(|(n, commits)| RequestBody::CommitBlocks {
                node_id: NodeId(n),
                commits,
            }),
        (any::<bool>(), "[a-z]{1,8}", any::<u64>()).prop_map(|(active, addr, cap)| {
            RequestBody::RegisterServer {
                kind: if active {
                    ServerKind::Active
                } else {
                    ServerKind::Data
                },
                storage_class: StorageClass::from("dram"),
                addr,
                capacity_blocks: cap,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(|(b, off, data)| RequestBody::WriteBlock {
                block_id: BlockId(b),
                offset: off,
                data: Bytes::from(data),
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(b, off, len)| {
            RequestBody::ReadBlock {
                block_id: BlockId(b),
                offset: off,
                len,
            }
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(n, read)| RequestBody::StreamOpen {
            node_id: NodeId(n),
            dir: if read {
                StreamDir::Read
            } else {
                StreamDir::Write
            },
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(|(s, seq, data)| RequestBody::StreamChunk {
                stream_id: StreamId(s),
                seq,
                data: Bytes::from(data),
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(s, max)| RequestBody::StreamFetch {
            stream_id: StreamId(s),
            max_len: max,
        }),
        any::<u64>().prop_map(|s| RequestBody::StreamClose {
            stream_id: StreamId(s),
        }),
    ]
}

fn arb_response_body() -> impl Strategy<Value = ResponseBody> {
    prop_oneof![
        Just(ResponseBody::Ok),
        proptest::collection::vec("[a-z0-9]{1,10}", 0..8).prop_map(ResponseBody::Children),
        (any::<u64>(), any::<u64>()).prop_map(|(s, f)| ResponseBody::Registered {
            server_id: ServerId(s),
            first_block_id: BlockId(f),
        }),
        any::<u64>().prop_map(|s| ResponseBody::StreamOpened {
            stream_id: StreamId(s),
        }),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..512),
            any::<bool>()
        )
            .prop_map(|(seq, data, eof)| ResponseBody::Data {
                seq,
                bytes: Bytes::from(data),
                eof,
            }),
        any::<u64>().prop_map(|n| ResponseBody::Written { n }),
        (any::<u16>(), "[ -~]{0,40}")
            .prop_map(|(code, message)| ResponseBody::Error { code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_frames_round_trip(
        id in any::<u64>(),
        trace_id in any::<u64>(),
        body in arb_request_body(),
    ) {
        let frame = Frame::Request(Request { id, trace_id, body });
        let mut buf = BytesMut::new();
        encode_frame(&frame, &mut buf);
        let decoded = decode_frame(&mut buf).unwrap().unwrap();
        prop_assert_eq!(decoded, frame);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn response_frames_round_trip(id in any::<u64>(), body in arb_response_body()) {
        let frame = Frame::Response(Response { id, body });
        let mut buf = BytesMut::new();
        encode_frame(&frame, &mut buf);
        let decoded = decode_frame(&mut buf).unwrap().unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = BytesMut::from(&data[..]);
        // Any result is fine — panics and infinite loops are not.
        let _ = decode_frame(&mut buf);
    }

    #[test]
    fn action_spec_params_survive_round_trip(spec in arb_action_spec()) {
        let enc = to_bytes(&spec);
        let dec: ActionSpec = from_bytes(enc).unwrap();
        prop_assert_eq!(dec, spec);
    }

    #[test]
    fn byte_size_display_parse_round_trips(n in 0u64..u64::MAX / 2048) {
        let size = ByteSize::bytes(n);
        let parsed: ByteSize = size.to_string().parse().unwrap();
        // Display rounds to 2 decimals above 1 MiB: allow 1% error.
        let err = parsed.as_u64().abs_diff(n);
        prop_assert!(err as f64 <= (n as f64) * 0.01 + 8.0, "{n} vs {}", parsed.as_u64());
    }
}

// ---------------------------------------------------------------------------
// Split framing: header/payload parts reassemble at any cut point, match the
// inline encoding byte-for-byte, and stay zero-copy on both ends.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_encoding_matches_inline_for_requests(
        id in any::<u64>(),
        trace_id in any::<u64>(),
        body in arb_request_body(),
    ) {
        let frame = Frame::Request(Request { id, trace_id, body });
        let mut header = BytesMut::new();
        let payload = encode_frame_header_tagged(&frame, LEGACY_STREAM, &mut header);
        let mut joined = BytesMut::from(&header[..]);
        if let Some(p) = &payload {
            joined.extend_from_slice(p);
        }
        let mut inline = BytesMut::new();
        encode_frame(&frame, &mut inline);
        prop_assert_eq!(&joined, &inline);
        let decoded = decode_frame(&mut joined).unwrap().unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn split_encoding_matches_inline_for_responses(
        id in any::<u64>(),
        body in arb_response_body(),
    ) {
        let frame = Frame::Response(Response { id, body });
        let mut header = BytesMut::new();
        let payload = encode_frame_header_tagged(&frame, LEGACY_STREAM, &mut header);
        let mut joined = BytesMut::from(&header[..]);
        if let Some(p) = &payload {
            joined.extend_from_slice(p);
        }
        let mut inline = BytesMut::new();
        encode_frame(&frame, &mut inline);
        prop_assert_eq!(&joined, &inline);
        let decoded = decode_frame(&mut joined).unwrap().unwrap();
        prop_assert_eq!(decoded, frame);
    }
}

proptest! {
    // 8 MiB payloads make each case real work; few cases suffice since the
    // interesting variation is (size, cut) not the byte values.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn split_framing_survives_any_cut_and_stays_zero_copy(
        id in any::<u64>(),
        size in prop::sample::select(vec![0usize, 1, 64 * 1024, 8 * 1024 * 1024]),
        cut_frac in 0.0f64..1.0,
        fill in any::<u8>(),
        as_request in any::<bool>(),
    ) {
        let data = Bytes::from(vec![fill; size]);
        let frame = if as_request {
            Frame::Request(Request {
                id,
                trace_id: 0,
                body: RequestBody::WriteBlock {
                    block_id: BlockId(3),
                    offset: 9,
                    data: data.clone(),
                },
            })
        } else {
            Frame::Response(Response {
                id,
                body: ResponseBody::Data {
                    seq: 7,
                    bytes: data.clone(),
                    eof: true,
                },
            })
        };

        // Encode-side zero copy: the out-of-band part is the caller's
        // allocation, not a staged copy.
        let mut header = BytesMut::new();
        let payload = encode_frame_header_tagged(&frame, LEGACY_STREAM, &mut header);
        let payload = payload.expect("payload-carrying frame");
        if size > 0 {
            prop_assert_eq!(payload.as_ptr(), data.as_ptr());
        }
        prop_assert_eq!(payload.len(), size);

        // Deliver the wire bytes in two arbitrary slices, as a socket would.
        let mut wire = BytesMut::from(&header[..]);
        wire.extend_from_slice(&payload);
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        let full = wire.len();
        let mut rx = BytesMut::from(&wire[..cut]);
        if cut < full {
            prop_assert_eq!(decode_frame(&mut rx).unwrap(), None);
            prop_assert_eq!(rx.len(), cut, "partial decode consumed bytes");
        }
        rx.extend_from_slice(&wire[cut..]);
        let range = rx.as_ptr() as usize..rx.as_ptr() as usize + rx.len();
        let decoded = decode_frame(&mut rx).unwrap().unwrap();
        prop_assert!(rx.is_empty());

        // Decode-side zero copy: the payload is a slice of the receive
        // buffer, not a fresh allocation.
        let bytes = match &decoded {
            Frame::Request(Request { body: RequestBody::WriteBlock { data, .. }, .. }) => data,
            Frame::Response(Response { body: ResponseBody::Data { bytes, .. }, .. }) => bytes,
            other => panic!("unexpected {other:?}"),
        };
        if size > 0 {
            let ptr = bytes.as_ptr() as usize;
            prop_assert!(
                range.contains(&ptr) && range.contains(&(ptr + bytes.len() - 1)),
                "decoded payload escaped the receive buffer"
            );
        }
        prop_assert_eq!(decoded, frame);
    }
}

// ---------------------------------------------------------------------------
// Namespace vs a flat model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum NsOp {
    CreateDir(u8),
    CreateFile(u8, u8),
    Delete(u8),
}

fn arb_ns_ops() -> impl Strategy<Value = Vec<NsOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..6).prop_map(NsOp::CreateDir),
            (0u8..6, 0u8..6).prop_map(|(d, f)| NsOp::CreateFile(d, f)),
            (0u8..6).prop_map(NsOp::Delete),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn namespace_matches_flat_model(ops in arb_ns_ops()) {
        let mut ns = Namespace::new();
        let mut model: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                NsOp::CreateDir(d) => {
                    let path = format!("/d{d}");
                    let ours = ns.create(NodePath::parse(&path).unwrap(), NodeKind::Directory, None, None);
                    if model.contains(&path) {
                        prop_assert!(ours.is_err());
                    } else {
                        prop_assert!(ours.is_ok());
                        model.insert(path);
                    }
                }
                NsOp::CreateFile(d, f) => {
                    let dir = format!("/d{d}");
                    let path = format!("/d{d}/f{f}");
                    let ours = ns.create(NodePath::parse(&path).unwrap(), NodeKind::File, None, None);
                    if !model.contains(&dir) || model.contains(&path) {
                        prop_assert!(ours.is_err());
                    } else {
                        prop_assert!(ours.is_ok());
                        model.insert(path);
                    }
                }
                NsOp::Delete(d) => {
                    let path = format!("/d{d}");
                    let ours = ns.delete(&NodePath::parse(&path).unwrap());
                    if model.contains(&path) {
                        prop_assert!(ours.is_ok());
                        model.retain(|p| p != &path && !p.starts_with(&format!("{path}/")));
                    } else {
                        prop_assert!(ours.is_err());
                    }
                }
            }
            // Invariant: every model path resolves, nothing else does.
            for path in &model {
                prop_assert!(ns.lookup(&NodePath::parse(path).unwrap()).is_ok());
            }
            prop_assert_eq!(ns.len(), model.len() + 1); // + root
        }
    }
}

// ---------------------------------------------------------------------------
// Block store vs a byte-array model.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_store_matches_model(
        writes in proptest::collection::vec(
            (0u64..4, 0u64..200, proptest::collection::vec(any::<u8>(), 1..64)),
            1..30,
        )
    ) {
        const BLOCK: u64 = 256;
        let store = BlockStore::new(BLOCK, BlockId(1), 4);
        let mut model = vec![vec![0u8; BLOCK as usize]; 4];
        for (blk, off, data) in writes {
            let id = BlockId(1 + blk);
            let end = off + data.len() as u64;
            let result = store.write(id, off, Bytes::from(data.clone()));
            if end > BLOCK {
                prop_assert!(result.is_err());
            } else {
                prop_assert!(result.is_ok());
                model[blk as usize][off as usize..end as usize].copy_from_slice(&data);
            }
        }
        for blk in 0..4u64 {
            let got = store.read(BlockId(1 + blk), 0, BLOCK).unwrap();
            prop_assert_eq!(&got[..], &model[blk as usize][..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Action input streams reassemble any arrival order by sequence number.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn input_stream_reassembles_any_permutation(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..16),
        shuffle_seed in any::<u64>(),
    ) {
        use glider_core::actions::stream::ActionInputStream;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let rt = tokio::runtime::Builder::new_current_thread()
            .build()
            .expect("rt");
        rt.block_on(async {
            let (mut input, pusher) = ActionInputStream::new(64);
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
            order.shuffle(&mut rng);
            for &i in &order {
                pusher
                    .push(i as u64, Bytes::from(chunks[i].clone()))
                    .await
                    .unwrap();
            }
            pusher.finish();
            let got = input.read_all().await.unwrap();
            let expected: Vec<u8> = chunks.concat();
            prop_assert_eq!(got, expected);
            Ok(())
        })?;
    }

    #[test]
    fn sorter_action_agrees_with_std_sort(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 6..7), 0..40),
        chunking in 1usize..13,
    ) {
        use glider_core::actions::{spawner, ActionManager, ActionRegistry};
        use glider_core::proto::types::{NodeId as NId, StreamDir as SDir};
        use glider_trace::SpanContext;
        use std::sync::Arc as StdArc;

        let rt = tokio::runtime::Builder::new_current_thread()
            .build()
            .expect("rt");
        rt.block_on(async {
            let registry = StdArc::new(ActionRegistry::with_builtins());
            let m = ActionManager::new(registry, 2, None, None, spawner(None));
            m.create_action(
                NId(1),
                glider_core::ActionSpec::new("sorter", false).with_params("record=6;key=3"),
            )
            .await
            .unwrap();
            let payload: Vec<u8> = records.concat();
            let sid = m
                .open_stream(SpanContext::NONE, NId(1), SDir::Write)
                .await
                .unwrap();
            for (i, chunk) in payload.chunks(chunking).enumerate() {
                m.push_chunk(sid, i as u64, Bytes::copy_from_slice(chunk))
                    .await
                    .unwrap();
            }
            m.close_stream(sid).await.unwrap();

            let rid = m
                .open_stream(SpanContext::NONE, NId(1), SDir::Read)
                .await
                .unwrap();
            let mut got = Vec::new();
            loop {
                let (_seq, bytes, eof) = m.fetch(rid, 1 << 20).await.unwrap();
                got.extend_from_slice(&bytes);
                if eof {
                    break;
                }
            }
            m.close_stream(rid).await.unwrap();

            let mut expected = records.clone();
            expected.sort_by(|a, b| a[..3].cmp(&b[..3]));
            let expected: Vec<u8> = expected.concat();
            prop_assert_eq!(got, expected);
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------------
// Sort partitioning + sorter action agree with std sort.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multiset_checksum_detects_any_single_change(
        mut records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 4..8), 2..20),
        idx in any::<prop::sample::Index>(),
    ) {
        use glider_analytics::text::multiset_checksum;
        let original = multiset_checksum(records.iter().map(|r| r.as_slice()));
        let i = idx.index(records.len());
        records[i].push(0xFF);
        let mutated = multiset_checksum(records.iter().map(|r| r.as_slice()));
        // Not cryptographic, but single-record mutations must virtually
        // always be caught.
        prop_assert_ne!(original, mutated);
    }
}
