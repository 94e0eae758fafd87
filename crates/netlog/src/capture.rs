//! Whole-capture reading and writing.
//!
//! A capture is the JSON document Chrome's `chrome://net-export`
//! produces: a `constants` object followed by an `events` array.
//! Chrome appends events to the file as they happen, so a browser that
//! is killed mid-crawl (or a 20-second window that expires mid-flight)
//! leaves a file whose `events` array is never closed. The parser here
//! recovers every complete event from such truncated captures instead
//! of rejecting the file — at crawl scale, losing a whole page visit to
//! a truncated tail would bias the error statistics of Table 1.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

use serde_json::Value;

use crate::constants::ConstantTables;
use crate::event::NetLogEvent;

/// A parsed or in-construction NetLog capture.
///
/// ```
/// use kt_netlog::Capture;
///
/// let doc = r#"{"constants": {}, "events": [
///   {"time": "5", "type": 1, "source": {"id": 3, "type": 0},
///    "phase": 1, "params": {"url": "http://localhost:4444/", "method": "GET"}}
/// ]}"#;
/// let capture = Capture::parse(doc).unwrap();
/// assert_eq!(capture.len(), 1);
/// assert_eq!(capture.events[0].url(), Some("http://localhost:4444/"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// The constant tables shipped with the capture. Captures built
    /// here share one process-wide standard table.
    pub constants: Cow<'static, ConstantTables>,
    /// Events in file order (which is time order for Chrome captures).
    pub events: Vec<NetLogEvent>,
    /// Number of wire events skipped because their type/source/phase
    /// codes were outside the modelled tables.
    pub skipped: usize,
    /// True if the capture was recovered from a truncated file.
    pub truncated: bool,
}

/// Errors when reading a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// Input is not JSON and recovery found no event objects either.
    Unparseable(String),
    /// JSON parsed but lacked the `events` array.
    MissingEvents,
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Unparseable(msg) => write!(f, "unparseable capture: {msg}"),
            CaptureError::MissingEvents => write!(f, "capture has no events array"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// The standard constant tables, built once per process and shared by
/// every capture that carries them.
fn standard_constants() -> Cow<'static, ConstantTables> {
    static STANDARD: OnceLock<ConstantTables> = OnceLock::new();
    Cow::Borrowed(STANDARD.get_or_init(ConstantTables::standard))
}

impl Capture {
    /// A fresh, empty capture with the standard constant tables.
    pub fn new() -> Capture {
        Capture::from_events(Vec::new())
    }

    /// Build a capture around already-collected events.
    pub fn from_events(events: Vec<NetLogEvent>) -> Capture {
        Capture {
            constants: standard_constants(),
            events,
            skipped: 0,
            truncated: false,
        }
    }

    /// Serialise to the `chrome://net-export` JSON document.
    pub fn to_json(&self) -> String {
        let doc = serde_json::json!({
            "constants": &*self.constants,
            "events": self.events.iter().map(NetLogEvent::to_wire).collect::<Vec<_>>(),
        });
        serde_json::to_string(&doc).expect("capture serialisation cannot fail")
    }

    /// Parse a capture document, recovering from truncation.
    pub fn parse(input: &str) -> Result<Capture, CaptureError> {
        match serde_json::from_str::<Value>(input) {
            Ok(doc) => {
                let events_val = doc.get("events").ok_or(CaptureError::MissingEvents)?;
                let arr = events_val.as_array().ok_or(CaptureError::MissingEvents)?;
                let mut events = Vec::with_capacity(arr.len());
                let mut skipped = 0;
                for v in arr {
                    match NetLogEvent::from_wire(v) {
                        Some(ev) => events.push(ev),
                        None => skipped += 1,
                    }
                }
                let constants = doc
                    .get("constants")
                    .and_then(|c| serde_json::from_value(c.clone()).ok())
                    .map_or_else(standard_constants, Cow::Owned);
                Ok(Capture {
                    constants,
                    events,
                    skipped,
                    truncated: false,
                })
            }
            Err(_) => Capture::parse_truncated(input),
        }
    }

    /// Recovery path: scan for complete top-level JSON objects inside
    /// the `events` array of a truncated document and parse each one.
    fn parse_truncated(input: &str) -> Result<Capture, CaptureError> {
        let start = input
            .find("\"events\"")
            .and_then(|i| input[i..].find('[').map(|j| i + j + 1))
            .ok_or(CaptureError::MissingEvents)?;
        let mut events = Vec::new();
        let mut skipped = 0;
        let bytes = input.as_bytes();
        let mut i = start;
        while i < bytes.len() {
            // Find the next object start.
            match bytes[i] {
                b'{' => {
                    if let Some(end) = balanced_object_end(input, i) {
                        let slice = &input[i..=end];
                        match serde_json::from_str::<Value>(slice) {
                            Ok(v) => match NetLogEvent::from_wire(&v) {
                                Some(ev) => events.push(ev),
                                None => skipped += 1,
                            },
                            Err(_) => skipped += 1,
                        }
                        i = end + 1;
                    } else {
                        // Incomplete trailing object: stop.
                        break;
                    }
                }
                b']' => break,
                _ => i += 1,
            }
        }
        if events.is_empty() && skipped == 0 {
            return Err(CaptureError::Unparseable(
                "no complete events recovered".into(),
            ));
        }
        Ok(Capture {
            constants: standard_constants(),
            events,
            skipped,
            truncated: true,
        })
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the capture holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Default for Capture {
    fn default() -> Self {
        Capture::new()
    }
}

/// Find the index of the `}` closing the object that starts at `start`,
/// honouring nesting and JSON string escapes. Returns `None` if the
/// object is not closed within the input.
fn balanced_object_end(input: &str, start: usize) -> Option<usize> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[start], b'{');
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (offset, &b) in bytes[start..].iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(start + offset);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{EventPhase, EventType, SourceType};
    use crate::event::{EventParams, SourceRef};

    fn ev(id: u64, time: u64, url: &str) -> NetLogEvent {
        NetLogEvent {
            time,
            event_type: EventType::UrlRequestStartJob,
            source: SourceRef {
                id,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::Begin,
            params: EventParams::UrlRequestStart {
                url: url.into(),
                method: "GET".into(),
                initiator: None,
                load_flags: 0,
            },
        }
    }

    #[test]
    fn json_round_trip() {
        let capture = Capture::from_events(vec![
            ev(1, 10, "https://example.com/"),
            ev(2, 20, "wss://127.0.0.1:3389/"),
        ]);
        let text = capture.to_json();
        let parsed = Capture::parse(&text).unwrap();
        assert_eq!(parsed.events, capture.events);
        assert_eq!(parsed.skipped, 0);
        assert!(!parsed.truncated);
        assert_eq!(*parsed.constants, ConstantTables::standard());
    }

    #[test]
    fn truncated_capture_recovers_complete_events() {
        let capture = Capture::from_events(vec![
            ev(1, 10, "https://example.com/"),
            ev(2, 20, "http://localhost:4444/"),
            ev(3, 30, "http://10.0.0.200/x.jpg"),
        ]);
        let text = capture.to_json();
        // Cut the file in the middle of the third event.
        let third_start = text.rfind("{\"params\"").unwrap_or(text.len() - 40);
        let cut = &text[..third_start + 15];
        let parsed = Capture::parse(cut).unwrap();
        assert!(parsed.truncated);
        assert!(parsed.len() >= 2, "recovered {} events", parsed.len());
        assert_eq!(parsed.events[0].url(), Some("https://example.com/"));
    }

    #[test]
    fn garbage_input_is_an_error() {
        assert!(matches!(
            Capture::parse("not json at all"),
            Err(CaptureError::Unparseable(_)) | Err(CaptureError::MissingEvents)
        ));
        assert_eq!(
            Capture::parse("{\"constants\": {}}"),
            Err(CaptureError::MissingEvents)
        );
    }

    #[test]
    fn unknown_event_types_are_counted_not_fatal() {
        let mut doc: Value = serde_json::from_str(
            &Capture::from_events(vec![ev(1, 10, "https://example.com/")]).to_json(),
        )
        .unwrap();
        doc["events"]
            .as_array_mut()
            .unwrap()
            .push(serde_json::json!({
                "time": "99", "type": 5000,
                "source": {"id": 9, "type": 0}, "phase": 0, "params": {}
            }));
        let parsed = Capture::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.skipped, 1);
    }

    #[test]
    fn balanced_object_end_handles_nesting_and_strings() {
        let s = r#"{"a": {"b": "}"}, "c": 1}"#;
        assert_eq!(balanced_object_end(s, 0), Some(s.len() - 1));
        let unterminated = r#"{"a": {"b": 1}"#;
        assert_eq!(balanced_object_end(unterminated, 0), None);
        let escaped = r#"{"a": "\"}"}"#;
        assert_eq!(balanced_object_end(escaped, 0), Some(escaped.len() - 1));
    }

    #[test]
    fn empty_capture() {
        let c = Capture::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        let parsed = Capture::parse(&c.to_json()).unwrap();
        assert!(parsed.is_empty());
    }
}
