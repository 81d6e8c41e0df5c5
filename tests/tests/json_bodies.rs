//! JSON from outside the program. The vendored decoder sits under every
//! HTTP body, snapshot and WAL path, so it must decode exactly what the
//! encoder wrote, and refuse what it cannot decode with an error, never
//! a crash or a stall.
//!
//! * `round_trip` — random [`Value`] trees nested up to the decoder's
//!   128-level cap, with strings mixing ASCII, every escape, control
//!   characters and 2-, 3- and 4-byte characters, come back equal through
//!   both `to_string` and `to_string_pretty`;
//! * `every_escape_form_decodes` — the same strings written with every
//!   form JSON allows (`\/`, `\b`, `\f`, `\uXXXX` in either case, surrogate
//!   pairs) decode to themselves;
//! * `deep_nesting_gets_a_400_and_the_loop_keeps_serving` — 20,000 `[` sent
//!   to each JSON route of a one-loop daemon over a live socket;
//! * `fuzzed_bodies_get_structured_replies` — generated bodies for the same
//!   routes: deep nesting, 1 MB strings, large pools and stores, truncation
//!   at a random offset, and random bytes.

use coverage_core::memo::KnowledgeStore;
use coverage_core::prelude::*;
use coverage_service::http::{http_request, HttpClient, HttpServer};
use coverage_service::{AuditDaemon, AuditKind, FleetDelta, JobSpec, ServiceConfig};
use integration_tests::female;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The decoder's nesting cap (the published `serde_json`'s default).
const MAX_DEPTH: usize = 128;

/// Any JSON value, exactly as the decoder builds it.
#[derive(Debug)]
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Raw {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Self(value.clone()))
    }
}

/// One character from a class the decoder treats differently: printable
/// ASCII, a character with a short escape, a control character, or a 2-,
/// 3- or 4-byte one.
fn any_char(rng: &mut SmallRng) -> char {
    let code = match rng.gen_range(0..6u8) {
        0 => rng.gen_range(0x20..0x7Fu32),
        1 => u32::from(
            ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'][rng.gen_range(0..8usize)],
        ),
        2 => [rng.gen_range(0..0x20u32), 0x7F][rng.gen_range(0..2usize)],
        3 => rng.gen_range(0x80..0x800u32),
        4 => rng.gen_range(0x800..0x1_0000u32),
        _ => rng.gen_range(0x1_0000..0x11_0000u32),
    };
    // A lone surrogate is no `char`; its stand-in is 3 bytes too.
    char::from_u32(code).unwrap_or('\u{FFFD}')
}

fn any_string(rng: &mut SmallRng, max_chars: usize) -> String {
    let len = rng.gen_range(0..=max_chars);
    (0..len).map(|_| any_char(rng)).collect()
}

fn leaf(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..6u8) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        // A non-negative integer decodes as `UInt`, so `Int` holds the
        // negative ones only.
        2 => Value::Int(rng.gen_range(i64::MIN..0)),
        3 => Value::UInt(rng.gen::<u64>() >> rng.gen_range(0..64u32)),
        4 => Value::Float(if rng.gen_bool(0.5) {
            rng.gen_range(-1e6..1e6)
        } else {
            // Any finite bit pattern: subnormals and ~300-digit
            // magnitudes too. JSON has no NaN or infinity.
            Some(f64::from_bits(rng.gen::<u64>()))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5)
        }),
        _ => Value::Str(any_string(rng, 12)),
    }
}

/// An array of `items`, or an object of them under random keys.
fn container(rng: &mut SmallRng, items: Vec<Value>) -> Value {
    if rng.gen_bool(0.5) {
        Value::Array(items)
    } else {
        Value::Object(items.into_iter().map(|v| (any_string(rng, 8), v)).collect())
    }
}

/// A value nesting at most `room` containers.
fn shallow(rng: &mut SmallRng, room: usize) -> Value {
    if room == 0 || rng.gen_bool(0.5) {
        return leaf(rng);
    }
    let items = (0..rng.gen_range(0..4usize))
        .map(|_| shallow(rng, room - 1))
        .collect();
    container(rng, items)
}

/// A value whose deepest path nests exactly `depth` containers, with small
/// siblings at every level.
fn spine(rng: &mut SmallRng, depth: usize) -> Value {
    if depth == 0 {
        return leaf(rng);
    }
    let mut items: Vec<Value> = (0..rng.gen_range(0..3usize))
        .map(|_| shallow(rng, (depth - 1).min(2)))
        .collect();
    let at = rng.gen_range(0..=items.len());
    items.insert(at, spine(rng, depth - 1));
    container(rng, items)
}

/// Random JSON trees nested up to the cap; a fifth of them reach it.
struct Trees;

impl Strategy for Trees {
    type Value = Value;

    fn generate(&self, rng: &mut SmallRng) -> Value {
        let depth = if rng.gen_bool(0.2) {
            MAX_DEPTH
        } else {
            rng.gen_range(0..=MAX_DEPTH)
        };
        spine(rng, depth)
    }
}

/// `text` as a JSON string literal, each character written in a form drawn
/// from all the ones JSON allows for it: itself, a short escape, or
/// `\uXXXX` (a surrogate pair past the BMP) in either case.
fn escape_every_way(rng: &mut SmallRng, text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let form = rng.gen_range(0..3u8);
        if form == 0 && c >= ' ' && c != '"' && c != '\\' {
            out.push(c);
        } else if let (1, Some(short)) = (form, short) {
            out.push_str(short);
        } else {
            for unit in c.encode_utf16(&mut [0; 2]).iter() {
                if rng.gen_bool(0.5) {
                    let _ = write!(out, "\\u{unit:04x}");
                } else {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
        }
    }
    out.push('"');
    out
}

/// A random string and its literal written by [`escape_every_way`].
struct Escaped;

impl Strategy for Escaped {
    type Value = (String, String);

    fn generate(&self, rng: &mut SmallRng) -> (String, String) {
        let text = any_string(rng, 48);
        let json = escape_every_way(rng, &text);
        (text, json)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn round_trip(tree in Trees) {
        let compact = serde_json::to_string(&Raw(tree.clone())).unwrap();
        prop_assert_eq!(serde_json::from_str::<Raw>(&compact).map(|raw| raw.0), Ok(tree.clone()));
        let pretty = serde_json::to_string_pretty(&Raw(tree.clone())).unwrap();
        prop_assert_eq!(serde_json::from_str::<Raw>(&pretty).map(|raw| raw.0), Ok(tree));
    }

    fn every_escape_form_decodes(case in Escaped) {
        let (text, json) = case;
        prop_assert_eq!(serde_json::from_str::<String>(&json), Ok(text));
    }
}

type Daemon = AuditDaemon<SharedTruthSource<VecGroundTruth>>;

/// The routes that decode a JSON request body.
const ROUTES: [&str; 3] = ["/jobs", "/store/import", "/fleet/delta"];

/// How long any one reply may take, in a debug build on a loaded host.
const DEADLINE: Duration = Duration::from_secs(10);

/// A daemon behind a single event loop, over `objects` objects of which
/// one in ten is female.
fn start(objects: usize) -> (Arc<Daemon>, HttpServer, SocketAddr) {
    let labels = (0..objects)
        .map(|i| Labels::single(u8::from(i % 10 == 0)))
        .collect();
    let daemon = Arc::new(AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            event_loop_threads: 1,
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::new(VecGroundTruth::new(labels))),
    ));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
    let addr = server.local_addr();
    (daemon, server, addr)
}

/// A structured error: a JSON object carrying an `error` string.
fn is_error_body(body: &str) -> bool {
    serde_json::from_str::<Raw>(body)
        .is_ok_and(|Raw(value)| matches!(value.get("error"), Some(Value::Str(_))))
}

/// `GET /healthz` on a connection of its own answers `200`.
fn assert_healthy(addr: SocketAddr, after: &str) {
    let (code, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(code, 200, "/healthz after {after}: {body}");
}

/// A decoder that recurses once per `[` with no cap overflows the event
/// loop's stack on this body, and the abort takes the whole process down.
#[test]
fn deep_nesting_gets_a_400_and_the_loop_keeps_serving() {
    let (daemon, server, addr) = start(100);
    let body = "[".repeat(20_000);
    let mut client = HttpClient::connect(addr).unwrap();
    for route in ROUTES {
        let (code, reply) = client.request("POST", route, Some(&body)).unwrap();
        assert_eq!(code, 400, "{route}: {reply}");
        assert!(is_error_body(&reply), "{route}: {reply}");
        assert!(reply.contains("recursion limit"), "{route}: {reply}");
        // The same (only) event loop serves a second connection while the
        // first stays open.
        assert_healthy(addr, route);
    }
    server.shutdown();
    daemon.shutdown().unwrap();
}

/// What a fuzzed body is built from.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A well-formed body; sometimes with a pool or store of many
    /// thousand entries.
    Valid,
    /// Arrays and objects nested around the cap or thousands deep, closed
    /// or not, bare, around a valid body or as a field's value.
    DeepNesting,
    /// A 1 MB string: in a field of a valid body, or never terminated.
    LongString,
    /// A valid body cut at a random byte, perhaps inside a character.
    Truncated,
    /// Up to 4 KB of random bytes, not necessarily UTF-8.
    RandomBytes,
}

const SHAPES: [Shape; 5] = [
    Shape::Valid,
    Shape::DeepNesting,
    Shape::LongString,
    Shape::Truncated,
    Shape::RandomBytes,
];

/// Objects the fuzzing daemon knows; pools and stores stay inside them.
const OBJECTS: usize = 100_000;

/// Contiguous object ids: a few, or (a third of the time) many thousand.
fn ids(rng: &mut SmallRng) -> Vec<ObjectId> {
    let len = if rng.gen_bool(1.0 / 3.0) {
        rng.gen_range(10_000..OBJECTS)
    } else {
        rng.gen_range(1..200)
    };
    let first = rng.gen_range(0..=OBJECTS - len);
    (first..first + len).map(|i| ObjectId(i as u32)).collect()
}

fn store(rng: &mut SmallRng) -> KnowledgeStore {
    let mut store = KnowledgeStore::new();
    for object in ids(rng) {
        store.record_labels(object, Labels::single(u8::from(rng.gen_bool(0.1))));
    }
    store
}

/// A well-formed body for `route`. Jobs carry a budget of a few tasks so
/// the fuzzing stays fast however large their pool.
fn valid_body(rng: &mut SmallRng, route: &str, name: String) -> String {
    match route {
        "/jobs" => serde_json::to_string(
            &JobSpec::new(
                name,
                ids(rng),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(rng.gen_range(1..20))
            .budget(rng.gen_range(1..4)),
        ),
        "/store/import" => serde_json::to_string(&store(rng)),
        _ => serde_json::to_string(&FleetDelta {
            from: name,
            store: store(rng),
        }),
    }
    .unwrap()
}

/// The route's first field, where the long strings and deep values go.
fn first_field(route: &str) -> &'static str {
    match route {
        "/jobs" => "name",
        "/store/import" => "labels",
        _ => "from",
    }
}

/// A body of `shape` for `route`, and whether the route must accept it.
fn fuzz_body(rng: &mut SmallRng, route: &str, shape: Shape) -> (Vec<u8>, bool) {
    let short_name = format!("fuzz/{}", rng.gen_range(0..4u8));
    match shape {
        Shape::Valid => (valid_body(rng, route, short_name).into_bytes(), true),
        Shape::DeepNesting => {
            let depth = if rng.gen_bool(0.5) {
                rng.gen_range(MAX_DEPTH - 28..MAX_DEPTH + 32)
            } else {
                rng.gen_range(10_000..100_000)
            };
            let opens: Vec<bool> = (0..depth).map(|_| rng.gen_bool(0.5)).collect();
            // Bare, as the value of the route's first field, or around a
            // valid body.
            let (mut body, core, tail) = match rng.gen_range(0..3u8) {
                0 => (String::new(), "0".to_string(), ""),
                1 => (
                    format!("{{\"{}\":", first_field(route)),
                    "0".to_string(),
                    "}",
                ),
                _ => (String::new(), valid_body(rng, route, short_name), ""),
            };
            for &array in &opens {
                body.push_str(if array { "[" } else { "{\"k\":" });
            }
            if rng.gen_bool(0.5) {
                body.push_str(&core);
                for &array in opens.iter().rev() {
                    body.push(if array { ']' } else { '}' });
                }
                body.push_str(tail);
            }
            (body.into_bytes(), false)
        }
        Shape::LongString => {
            // ~1 MB: a random chunk of 2,048 characters, repeated.
            let chunk: String = (0..2048).map(|_| any_char(rng)).collect();
            let long = chunk.repeat((1 << 20) / chunk.len());
            if rng.gen_bool(0.5) {
                let body = match route {
                    "/store/import" => {
                        // An unknown field is ignored.
                        let store = serde_json::to_string(&store(rng)).unwrap();
                        let long = serde_json::to_string(&long).unwrap();
                        format!("{{\"padding\":{long},{}", &store[1..])
                    }
                    _ => valid_body(rng, route, long),
                };
                (body.into_bytes(), true)
            } else {
                let mut long = serde_json::to_string(&long).unwrap();
                long.pop(); // the closing quote
                let body = format!("{{\"{}\":{long}", first_field(route));
                (body.into_bytes(), false)
            }
        }
        Shape::Truncated => {
            let body = valid_body(rng, route, short_name).into_bytes();
            let cut = rng.gen_range(0..body.len());
            (body[..cut].to_vec(), false)
        }
        Shape::RandomBytes => {
            let len = rng.gen_range(0..4096usize);
            ((0..len).map(|_| rng.gen_range(0..=255u8)).collect(), false)
        }
    }
}

/// Sends `body` as is (it need not be UTF-8) over a fresh
/// `Connection: close` socket: the status, the reply body and how long the
/// round trip took.
fn post_raw(addr: SocketAddr, route: &str, body: &[u8]) -> (u16, String, Duration) {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    stream.set_write_timeout(Some(DEADLINE)).unwrap();
    write!(
        stream,
        "POST {route} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let response = String::from_utf8_lossy(&response);
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let reply = response
        .split_once("\r\n\r\n")
        .map(|(_, reply)| reply.to_string())
        .unwrap_or_default();
    (code, reply, started.elapsed())
}

/// Every generated body gets a `2xx`, or a `4xx` with an error body,
/// within the deadline, and the loop then still serves `/healthz` on a
/// second connection. Each (route, shape) pair runs three times.
#[test]
fn fuzzed_bodies_get_structured_replies() {
    let (daemon, server, addr) = start(OBJECTS);
    let mut rng = proptest::property_rng("json_bodies::fuzzed_bodies_get_structured_replies");
    for round in 0..3 {
        for shape in SHAPES {
            for route in ROUTES {
                let (body, well_formed) = fuzz_body(&mut rng, route, shape);
                let case = format!(
                    "round {round}, {shape:?} {route}, {} bytes starting {:?}",
                    body.len(),
                    String::from_utf8_lossy(&body[..body.len().min(80)])
                );
                let (code, reply, took) = post_raw(addr, route, &body);
                let reply_head: String = reply.chars().take(200).collect();
                assert!(took <= DEADLINE, "{case}: took {took:?}");
                if well_formed {
                    assert!((200..300).contains(&code), "{case}: {code} {reply_head}");
                } else {
                    assert!((400..500).contains(&code), "{case}: {code} {reply_head}");
                    assert!(is_error_body(&reply), "{case}: {code} {reply_head}");
                }
                assert_healthy(addr, &case);
            }
        }
    }
    server.shutdown();
    daemon.shutdown().unwrap();
}
