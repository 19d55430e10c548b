//! Seeded properties of the codec and the framing layer, over request
//! and response bodies with seeded fields:
//!
//! - a frame decodes to itself and consumes exactly its own bytes (a
//!   second frame behind it decodes too);
//! - the split encoding (header part + out-of-band payload) is the inline
//!   encoding byte for byte;
//! - a payload-carrying frame cut at any point waits for the rest without
//!   consuming anything, then decodes with its payload shared, not
//!   copied, on both the encode and the decode side;
//! - garbage and damaged frames decode to an error or to "need more
//!   bytes", never to a panic;
//! - an `ActionSpec`'s params survive the codec.
//!
//! Each property runs seeds 1–8; `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-proto --test frames` runs one, and a failure names its seed
//! and case.

use bytes::{Bytes, BytesMut};
use glider_proto::codec::{from_bytes, to_bytes};
use glider_proto::frame::{
    decode_frame, decode_frame_tagged, encode_frame, encode_frame_header_tagged,
    encode_frame_tagged, Frame, LEGACY_STREAM,
};
use glider_proto::message::{Request, RequestBody, Response, ResponseBody};
use glider_proto::types::{
    ActionSpec, BlockId, NodeId, NodeKind, PeerTier, ServerId, ServerKind, StorageClass, StreamDir,
    StreamId,
};
use glider_sim::{seeds, Lcg};

/// Cases per seed. Miri runs this file too, at a fraction of the speed.
const CASES: usize = if cfg!(miri) { 2 } else { 32 };

/// A full-range `u64`: three 31-bit draws.
fn wide(rng: &mut Lcg) -> u64 {
    (rng.next() << 62) ^ (rng.next() << 31) ^ rng.next()
}

fn flip(rng: &mut Lcg) -> bool {
    rng.below(2) == 0
}

/// `min..=max` characters drawn from `alphabet`.
fn text(rng: &mut Lcg, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = min + rng.below(max - min + 1);
    (0..len)
        .map(|_| char::from(alphabet[rng.below(alphabet.len())]))
        .collect()
}

/// Up to `max` seeded bytes.
fn data(rng: &mut Lcg, max: usize) -> Bytes {
    let len = rng.below(max + 1);
    Bytes::from((0..len).map(|_| rng.byte()).collect::<Vec<u8>>())
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// One to four `/[a-z0-9]{1,8}` components.
fn path(rng: &mut Lcg) -> String {
    (0..1 + rng.below(4))
        .map(|_| format!("/{}", text(rng, ALNUM, 1, 8)))
        .collect()
}

fn action_spec(rng: &mut Lcg) -> ActionSpec {
    let name = text(rng, LOWER, 1, 12);
    let interleaved = flip(rng);
    ActionSpec::new(name, interleaved).with_params(text(rng, b"abcxyz0189=;/", 0, 40))
}

fn node_kind(rng: &mut Lcg) -> NodeKind {
    [
        NodeKind::File,
        NodeKind::Directory,
        NodeKind::KeyValue,
        NodeKind::Table,
        NodeKind::Bag,
        NodeKind::Action,
    ][rng.below(6)]
}

fn request_body(rng: &mut Lcg) -> RequestBody {
    match rng.below(13) {
        0 => RequestBody::Hello {
            tier: if flip(rng) {
                PeerTier::Compute
            } else {
                PeerTier::Storage
            },
        },
        1 => RequestBody::CreateNode {
            path: path(rng),
            kind: node_kind(rng),
            storage_class: None,
            action: flip(rng).then(|| action_spec(rng)),
        },
        2 => RequestBody::LookupNode { path: path(rng) },
        3 => RequestBody::DeleteNode { path: path(rng) },
        4 => RequestBody::AddBlocks {
            node_id: NodeId(wide(rng)),
            count: wide(rng) as u32,
        },
        5 => RequestBody::CommitBlocks {
            node_id: NodeId(wide(rng)),
            commits: (0..rng.below(8))
                .map(|_| (BlockId(wide(rng)), wide(rng)))
                .collect(),
        },
        6 => RequestBody::RegisterServer {
            kind: if flip(rng) {
                ServerKind::Active
            } else {
                ServerKind::Data
            },
            storage_class: StorageClass::from("dram"),
            addr: text(rng, LOWER, 1, 8),
            capacity_blocks: wide(rng),
        },
        7 => RequestBody::WriteBlock {
            block_id: BlockId(wide(rng)),
            offset: wide(rng),
            data: data(rng, 255),
        },
        8 => RequestBody::ReadBlock {
            block_id: BlockId(wide(rng)),
            offset: wide(rng),
            len: wide(rng),
        },
        9 => RequestBody::StreamOpen {
            node_id: NodeId(wide(rng)),
            dir: if flip(rng) {
                StreamDir::Read
            } else {
                StreamDir::Write
            },
        },
        10 => RequestBody::StreamChunk {
            stream_id: StreamId(wide(rng)),
            seq: wide(rng),
            data: data(rng, 255),
        },
        11 => RequestBody::StreamFetch {
            stream_id: StreamId(wide(rng)),
            max_len: wide(rng),
        },
        _ => RequestBody::StreamClose {
            stream_id: StreamId(wide(rng)),
        },
    }
}

fn response_body(rng: &mut Lcg) -> ResponseBody {
    match rng.below(7) {
        0 => ResponseBody::Ok,
        1 => ResponseBody::Children((0..rng.below(8)).map(|_| text(rng, ALNUM, 1, 10)).collect()),
        2 => ResponseBody::Registered {
            server_id: ServerId(wide(rng)),
            first_block_id: BlockId(wide(rng)),
        },
        3 => ResponseBody::StreamOpened {
            stream_id: StreamId(wide(rng)),
        },
        4 => ResponseBody::Data {
            seq: wide(rng),
            bytes: data(rng, 511),
            eof: flip(rng),
        },
        5 => ResponseBody::Written { n: wide(rng) },
        _ => {
            let printable: Vec<u8> = (b' '..=b'~').collect();
            ResponseBody::Error {
                code: wide(rng) as u16,
                message: text(rng, &printable, 0, 40),
            }
        }
    }
}

fn request(rng: &mut Lcg) -> Frame {
    Frame::Request(Request {
        id: wide(rng),
        trace_id: wide(rng),
        body: request_body(rng),
    })
}

fn response(rng: &mut Lcg) -> Frame {
    Frame::Response(Response {
        id: wide(rng),
        body: response_body(rng),
    })
}

/// Runs `case` for every seed and case number with that seed's stream.
fn each_case(cases: usize, mut case: impl FnMut(&mut Lcg, &str)) {
    for seed in seeds(1..=8) {
        let mut rng = Lcg(seed);
        for n in 0..cases {
            case(&mut rng, &format!("seed {seed} case {n}"));
        }
    }
}

/// `frame`, then a second frame, encoded back to back, decode to both
/// with nothing left over.
fn assert_round_trips(frame: Frame, next: Frame, at: &str) {
    let mut buf = BytesMut::new();
    encode_frame(&frame, &mut buf);
    encode_frame(&next, &mut buf);
    let decoded = decode_frame(&mut buf).unwrap_or_else(|e| panic!("{at}: {e:?}"));
    assert_eq!(decoded, Some(frame), "{at}");
    let decoded = decode_frame(&mut buf).unwrap_or_else(|e| panic!("{at}: {e:?}"));
    assert_eq!(decoded, Some(next), "{at}: the frame behind it");
    assert!(buf.is_empty(), "{at}: {} bytes left over", buf.len());
}

#[test]
fn request_frames_round_trip() {
    each_case(CASES, |rng, at| {
        let (frame, next) = (request(rng), request(rng));
        assert_round_trips(frame, next, at);
    });
}

#[test]
fn response_frames_round_trip() {
    each_case(CASES, |rng, at| {
        let (frame, next) = (response(rng), response(rng));
        assert_round_trips(frame, next, at);
    });
}

/// The split encoding of `frame` joined is its inline encoding, and
/// decodes back to it.
fn assert_split_matches_inline(frame: Frame, at: &str) {
    let mut header = BytesMut::new();
    let payload = encode_frame_header_tagged(&frame, LEGACY_STREAM, &mut header);
    let mut joined = BytesMut::from(&header[..]);
    if let Some(p) = &payload {
        joined.extend_from_slice(p);
    }
    let mut inline = BytesMut::new();
    encode_frame(&frame, &mut inline);
    assert_eq!(&joined[..], &inline[..], "{at}");
    let decoded = decode_frame(&mut joined).unwrap_or_else(|e| panic!("{at}: {e:?}"));
    assert_eq!(decoded, Some(frame), "{at}");
}

#[test]
fn split_encoding_matches_inline_for_requests() {
    each_case(CASES, |rng, at| {
        assert_split_matches_inline(request(rng), at)
    });
}

#[test]
fn split_encoding_matches_inline_for_responses() {
    each_case(CASES, |rng, at| {
        assert_split_matches_inline(response(rng), at);
    });
}

/// Payload sizes: empty, one byte, a block chunk and a whole 8 MiB block
/// (not under Miri).
const SIZES: [usize; 4] = [0, 1, 64 * 1024, 8 * 1024 * 1024];

#[test]
fn split_framing_survives_any_cut_and_stays_zero_copy() {
    each_case(2, |rng, at| {
        let sizes = if cfg!(miri) { &SIZES[..3] } else { &SIZES[..] };
        let size = sizes[rng.below(sizes.len())];
        let data = Bytes::from(vec![rng.byte(); size]);
        let id = wide(rng);
        let frame = if flip(rng) {
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
        let at = format!("{at}: {size}-byte payload");

        // Encode-side zero copy: the out-of-band part is the caller's
        // allocation, not a staged copy.
        let mut header = BytesMut::new();
        let payload = encode_frame_header_tagged(&frame, LEGACY_STREAM, &mut header)
            .unwrap_or_else(|| panic!("{at}: a payload-carrying frame has a payload part"));
        if size > 0 {
            assert_eq!(payload.as_ptr(), data.as_ptr(), "{at}: payload copied");
        }
        assert_eq!(payload.len(), size, "{at}");

        // Deliver the wire bytes in two arbitrary slices, as a socket
        // would.
        let mut wire = BytesMut::from(&header[..]);
        wire.extend_from_slice(&payload);
        let cut = rng.below(wire.len() + 1);
        let at = format!("{at}, cut at {cut} of {}", wire.len());
        let mut rx = BytesMut::from(&wire[..cut]);
        if cut < wire.len() {
            let partial = decode_frame(&mut rx).unwrap_or_else(|e| panic!("{at}: {e:?}"));
            assert_eq!(partial, None, "{at}");
            assert_eq!(rx.len(), cut, "{at}: a partial decode consumed bytes");
        }
        rx.extend_from_slice(&wire[cut..]);
        let range = rx.as_ptr() as usize..rx.as_ptr() as usize + rx.len();
        let decoded = decode_frame(&mut rx)
            .unwrap_or_else(|e| panic!("{at}: {e:?}"))
            .unwrap_or_else(|| panic!("{at}: the whole frame did not decode"));
        assert!(rx.is_empty(), "{at}");

        // Decode-side zero copy: the payload is a slice of the receive
        // buffer, not a fresh allocation.
        let bytes = match &decoded {
            Frame::Request(Request {
                body: RequestBody::WriteBlock { data, .. },
                ..
            }) => data,
            Frame::Response(Response {
                body: ResponseBody::Data { bytes, .. },
                ..
            }) => bytes,
            other => panic!("{at}: decoded {other:?}"),
        };
        if size > 0 {
            let ptr = bytes.as_ptr() as usize;
            assert!(
                range.contains(&ptr) && range.contains(&(ptr + bytes.len() - 1)),
                "{at}: the decoded payload escaped the receive buffer"
            );
        }
        assert_eq!(decoded, frame, "{at}");
    });
}

/// Seeded garbage, and encoded frames with bits flipped, cut short or
/// trailing junk, decode to an error, to "need more bytes" or to a frame
/// whose encoding is exactly the bytes the decode consumed: no panic, no
/// endless loop over one buffer, and no byte accepted that the frame
/// does not account for.
#[test]
fn decoder_never_panics_on_garbage() {
    each_case(4 * CASES, |rng, at| {
        let mut buf = if flip(rng) {
            BytesMut::from(&data(rng, 511)[..])
        } else {
            let frame = if flip(rng) {
                request(rng)
            } else {
                response(rng)
            };
            let mut buf = BytesMut::new();
            encode_frame(&frame, &mut buf);
            let mut bytes = buf.to_vec();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            bytes.truncate(rng.below(bytes.len() + 1));
            if flip(rng) {
                bytes.extend_from_slice(&data(rng, 16));
            }
            BytesMut::from(&bytes[..])
        };
        loop {
            let before = buf.to_vec();
            let Ok(Some((stream, frame))) = decode_frame_tagged(&mut buf) else {
                break;
            };
            let mut again = BytesMut::new();
            encode_frame_tagged(&frame, stream, &mut again);
            let consumed = &before[..before.len() - buf.len()];
            assert_eq!(&again[..], consumed, "{at}: decoded {frame:?}");
        }
    });
}

#[test]
fn action_spec_params_survive_round_trip() {
    each_case(4 * CASES, |rng, at| {
        let spec = action_spec(rng);
        let decoded: ActionSpec =
            from_bytes(to_bytes(&spec)).unwrap_or_else(|e| panic!("{at}: {e:?}"));
        assert_eq!(decoded, spec, "{at}");
    });
}
