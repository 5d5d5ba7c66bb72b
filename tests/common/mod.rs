//! Checks shared by the differential suites.

use csqp_source::Source;

/// The paper's safety property: the mediator never sends a source a query
/// its SSDL description does not accept. Asserts that no source in
/// `sources` has turned a query away at its capability gate since it was
/// built.
pub fn assert_no_rejections<S: AsRef<Source>>(sources: impl IntoIterator<Item = S>) {
    for source in sources {
        let source = source.as_ref();
        assert_eq!(
            source.meter().rejected,
            0,
            "source {} was sent a query its description does not accept",
            source.name
        );
    }
}
