/**
 * @file
 * The test-side reader of a daemon's result stream: each message is
 * either a binary result frame (a run or sweep point) or a JSON line
 * (an ack, a done line, an error, any control answer). Shared by the
 * service, fleet and connection-core tests.
 */

#ifndef MTV_TESTS_STREAM_READER_HH
#define MTV_TESTS_STREAM_READER_HH

#include <gtest/gtest.h>

#include <string>

#include "src/service/protocol.hh"

namespace mtv
{

/** One message of a result stream. */
struct StreamMessage
{
    bool isFrame = false;
    /** The frame payload as read (isFrame), or the line's text. */
    std::string raw;
    /** The decoded point (isFrame). */
    ResultFrame frame;
    /** The parsed control line (!isFrame). */
    Json line;
};

/** Read the next message off @p channel with LineChannel::
 *  readMessage(), decoding a frame with decodeResultFrame() and
 *  parsing a line as JSON. Fails on EOF, a bad frame or bad JSON. */
inline testing::AssertionResult
readStreamMessage(LineChannel &channel, StreamMessage *out)
{
    const LineChannel::MessageKind kind = channel.readMessage(&out->raw);
    std::string error;
    switch (kind) {
    case LineChannel::MessageKind::Frame:
        out->isFrame = true;
        if (!decodeResultFrame(out->raw, &out->frame, &error))
            return testing::AssertionFailure() << "bad frame: " << error;
        return testing::AssertionSuccess();
    case LineChannel::MessageKind::Line:
        out->isFrame = false;
        if (!Json::parse(out->raw, &out->line, &error)) {
            return testing::AssertionFailure()
                   << "malformed line: " << error << ": " << out->raw;
        }
        return testing::AssertionSuccess();
    case LineChannel::MessageKind::Eof:
        return testing::AssertionFailure() << "end of stream";
    case LineChannel::MessageKind::BadFrame:
        break;
    }
    return testing::AssertionFailure() << "unreadable frame";
}

/** Read the next message, which must be a result frame. */
inline testing::AssertionResult
readFrame(LineChannel &channel, ResultFrame *frame)
{
    StreamMessage message;
    testing::AssertionResult read = readStreamMessage(channel, &message);
    if (!read)
        return read;
    if (!message.isFrame) {
        return testing::AssertionFailure()
               << "expected a result frame, got: " << message.raw;
    }
    *frame = std::move(message.frame);
    return testing::AssertionSuccess();
}

/** Read messages up to and including the next done line, which
 *  lands in @p done (null to drop it); frames on the way are dropped
 *  and an error line fails. */
inline testing::AssertionResult
readUntilDone(LineChannel &channel, Json *done = nullptr)
{
    for (;;) {
        StreamMessage message;
        testing::AssertionResult read =
            readStreamMessage(channel, &message);
        if (!read)
            return read;
        if (message.isFrame)
            continue;
        if (message.line.has("error")) {
            return testing::AssertionFailure()
                   << "error line: " << message.raw;
        }
        if (message.line.getBool("done", false)) {
            if (done)
                *done = std::move(message.line);
            return testing::AssertionSuccess();
        }
    }
}

} // namespace mtv

#endif // MTV_TESTS_STREAM_READER_HH
