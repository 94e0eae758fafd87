//! The logging handle a (simulated) browser writes events through.
//!
//! `NetLogger` owns the serial source-ID counter — Chrome assigns
//! source IDs in creation order, a property the paper's flow grouping
//! depends on — and hands each event to an [`EventSink`]. The default
//! sink collects owned [`NetLogEvent`]s into a capture; a crawl points
//! the logger at a sink that encodes each event as it arrives, so its
//! parameters are only ever borrowed.

use crate::capture::Capture;
use crate::constants::{EventPhase, EventType, NetError, SourceType};
use crate::event::{EventParams, NetLogEvent, SourceRef, TimeMs};
use crate::view::{EventView, ParamsView};

/// Where a [`NetLogger`]'s events go.
pub trait EventSink {
    /// Take one event. Its parameters are borrowed for the call only.
    fn event(&mut self, event: EventView<'_>);

    /// Events taken so far.
    fn event_count(&self) -> usize;

    /// Drop every event after the first `keep` (a capture that lost
    /// its tail).
    fn truncate_events(&mut self, keep: usize);

    /// The events taken so far as owned values, for a panic payload
    /// that carries them out of an unwinding visit. A sink whose
    /// events stay readable after unwinding keeps them and returns
    /// none.
    fn salvage(&mut self) -> Vec<NetLogEvent>;
}

/// The owned sink: every event becomes a [`NetLogEvent`].
impl EventSink for Vec<NetLogEvent> {
    fn event(&mut self, event: EventView<'_>) {
        self.push(event.to_owned());
    }

    fn event_count(&self) -> usize {
        self.len()
    }

    fn truncate_events(&mut self, keep: usize) {
        self.truncate(keep);
    }

    fn salvage(&mut self) -> Vec<NetLogEvent> {
        std::mem::take(self)
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn event(&mut self, event: EventView<'_>) {
        (**self).event(event);
    }

    fn event_count(&self) -> usize {
        (**self).event_count()
    }

    fn truncate_events(&mut self, keep: usize) {
        (**self).truncate_events(keep);
    }

    fn salvage(&mut self) -> Vec<NetLogEvent> {
        (**self).salvage()
    }
}

/// Emits NetLog events during one page visit.
#[derive(Debug)]
pub struct NetLogger<S = Vec<NetLogEvent>> {
    sink: S,
    next_source_id: u64,
}

impl<S: EventSink + Default> Default for NetLogger<S> {
    /// Like [`NetLogger::with_sink`]: source IDs start at 1.
    fn default() -> NetLogger<S> {
        NetLogger::with_sink(S::default())
    }
}

impl NetLogger {
    /// A fresh logger collecting owned events; source IDs start at 1
    /// (Chrome reserves 0).
    pub fn new() -> NetLogger {
        NetLogger::with_sink(Vec::new())
    }

    /// Events logged so far.
    pub fn events(&self) -> &[NetLogEvent] {
        &self.sink
    }

    /// Finish the visit and hand over the capture.
    pub fn into_capture(self) -> Capture {
        Capture::from_events(self.sink)
    }
}

impl<S: EventSink> NetLogger<S> {
    /// A fresh logger writing into `sink`; source IDs start at 1.
    pub fn with_sink(sink: S) -> NetLogger<S> {
        NetLogger {
            sink,
            next_source_id: 1,
        }
    }

    /// Allocate a new serial source of the given kind.
    pub fn new_source(&mut self, kind: SourceType) -> SourceRef {
        let id = self.next_source_id;
        self.next_source_id += 1;
        SourceRef { id, kind }
    }

    /// Emit one event with borrowed parameters.
    pub fn emit(
        &mut self,
        time: TimeMs,
        source: SourceRef,
        event_type: EventType,
        phase: EventPhase,
        params: ParamsView<'_>,
    ) {
        self.sink.event(EventView {
            time,
            event_type,
            source,
            phase,
            params,
        });
    }

    /// Append one event with owned parameters.
    pub fn log(
        &mut self,
        time: TimeMs,
        source: SourceRef,
        event_type: EventType,
        phase: EventPhase,
        params: EventParams,
    ) {
        self.emit(time, source, event_type, phase, params.view());
    }

    /// Convenience: log the start of a URL request.
    pub fn log_request_start(
        &mut self,
        time: TimeMs,
        source: SourceRef,
        url: &str,
        initiator: Option<&str>,
    ) {
        self.emit(
            time,
            source,
            EventType::RequestAlive,
            EventPhase::Begin,
            ParamsView::None,
        );
        self.emit(
            time,
            source,
            EventType::UrlRequestStartJob,
            EventPhase::Begin,
            ParamsView::UrlRequestStart {
                url,
                method: "GET",
                initiator,
                load_flags: 0,
            },
        );
    }

    /// Convenience: log a terminal failure and close the request.
    pub fn log_failure(&mut self, time: TimeMs, source: SourceRef, error: NetError) {
        self.emit(
            time,
            source,
            EventType::FailedRequest,
            EventPhase::None,
            ParamsView::Failed {
                net_error: error.code(),
            },
        );
        self.emit(
            time,
            source,
            EventType::RequestAlive,
            EventPhase::End,
            ParamsView::None,
        );
    }

    /// Convenience: log a response and close the request.
    pub fn log_response(&mut self, time: TimeMs, source: SourceRef, status: u16) {
        self.emit(
            time,
            source,
            EventType::HttpTransactionReadHeaders,
            EventPhase::None,
            ParamsView::ResponseHeaders { status },
        );
        self.emit(
            time,
            source,
            EventType::RequestAlive,
            EventPhase::End,
            ParamsView::None,
        );
    }

    /// Number of events logged so far.
    pub fn len(&self) -> usize {
        self.sink.event_count()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowOutcome, FlowSet};

    #[test]
    fn source_ids_are_serial_starting_at_one() {
        let mut log = NetLogger::new();
        let a = log.new_source(SourceType::UrlRequest);
        let b = log.new_source(SourceType::WebSocket);
        let c = log.new_source(SourceType::UrlRequest);
        assert_eq!((a.id, b.id, c.id), (1, 2, 3));
    }

    #[test]
    fn convenience_helpers_produce_complete_flows() {
        let mut log = NetLogger::new();
        let ok = log.new_source(SourceType::UrlRequest);
        log.log_request_start(100, ok, "https://a.com/", None);
        log.log_response(150, ok, 200);
        let bad = log.new_source(SourceType::UrlRequest);
        log.log_request_start(110, bad, "http://gone.example/", Some("https://a.com"));
        log.log_failure(120, bad, NetError::NameNotResolved);

        let flows = FlowSet::from_events(log.into_capture().events);
        assert_eq!(flows.len(), 2);
        assert_eq!(
            flows.get(ok.id).unwrap().outcome(),
            FlowOutcome::Success(200)
        );
        assert!(flows.get(ok.id).unwrap().is_closed());
        assert_eq!(
            flows.get(bad.id).unwrap().outcome(),
            FlowOutcome::Failed(NetError::NameNotResolved)
        );
    }

    #[test]
    fn capture_round_trip_via_logger() {
        let mut log = NetLogger::new();
        let s = log.new_source(SourceType::UrlRequest);
        log.log_request_start(5, s, "http://localhost:12071/v1/init.json", None);
        log.log_response(9, s, 200);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
        let capture = log.into_capture();
        let parsed = Capture::parse(&capture.to_json()).unwrap();
        assert_eq!(parsed.events, capture.events);
    }
}
